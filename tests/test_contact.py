from fractions import Fraction

import engelkit.expr as ex
from engelkit.contact import (contact_form, contactization_report,
                              pullback_section_map, restrict_to_section,
                              thicken_space)
from engelkit.engel import transform_forms
from engelkit.frames import d, lie_form, zero


def P(text, extra=()):
    return ex.parse(text, variables=("x", "y", "z", "t", "s") + tuple(extra))


def test_thicken_torus_space(torus):
    sp5 = thicken_space(torus.space)
    assert sp5.dim == 5
    assert sp5.names[-1] == "s"
    assert sp5.coord_ranges[-1] == ("s", -1.0, 1.0, False)


def test_contact_form_components(torus):
    sp5, eta = contact_form(torus)
    # beta + s alpha, componentwise
    assert eta.comp((0,)) == P("-sin(2*pi*t) - s*cos(2*pi*t)")
    assert eta.comp((1,)) == P("cos(2*pi*t) - s*sin(2*pi*t)")
    assert eta.comp((2,)) == P("s")
    assert eta.comp((3,)) == ex.ZERO
    assert eta.comp((4,)) == ex.ZERO


def test_torus_contactization(torus, policy):
    rep = contactization_report(torus, policy)
    vol = rep["contact volume"]
    ok, low = vol.ok, vol.value
    assert ok and low > 0.5
    assert rep["pairs to one"].ok
    assert rep["contracts to zero"].ok
    assert rep["closed form matches solve"].ok
    closed = rep["closed form"]
    # T + s W', with a vanishing interval component
    assert closed.comps[0] == P("-sin(2*pi*t) - s*cos(2*pi*t)")
    assert closed.comps[1] == P("cos(2*pi*t) - s*sin(2*pi*t)")
    assert closed.comps[2] == P("-s")
    assert closed.comps[3] == ex.ZERO
    assert closed.comps[4] == ex.ZERO


def test_nil4_contactization(nil4, policy):
    rep = contactization_report(nil4, policy)
    vol = rep["contact volume"]
    ok, low = vol.ok, vol.value
    assert ok
    assert rep["pairs to one"].kind == "exact"
    assert rep["contracts to zero"].kind == "exact"
    assert rep["closed form matches solve"].kind == "exact"
    closed = rep["closed form"]
    assert [ex.to_str(c) for c in closed.comps] == ["s", "-1", "0", "0", "0"]


def test_pullback_with_interval_component(torus):
    # exercise the ds branch: pull back d(eta) and compare with d(pullback)
    sp5, eta = contact_form(torus)
    h = P("1/2*s + sin(2*pi*z)")
    pulled_then_d = d(pullback_section_map(eta, h, sp5))
    d_then_pulled = pullback_section_map(d(eta), h, sp5)
    diff = pulled_then_d - d_then_pulled
    assert all(ex.cleanup(c) == ex.ZERO for c in diff.comps.values())


def contactomorphism(data, new, lam, mu, nu, policy):
    """Does (p, s) -> (p, (mu/lam) s - nu/lam) pull eta' back to mu eta?

    eta and eta' are the thickenings of the pair and of its transform
    (lam alpha, mu beta + nu alpha).
    """
    sp5, eta = contact_form(data)
    _, eta2 = contact_form(new, space5=sp5)
    f = ex.cleanup(ex.div(mu, lam))
    g = ex.cleanup(ex.div(ex.neg(nu), lam))
    h = ex.add(ex.mul(f, ex.var("s")), g)
    pulled = pullback_section_map(eta2, h, sp5)
    return zero(pulled - eta.scale(mu), sp5.coord_ranges, policy)


def test_contactomorphism_rescale_alpha(torus, policy):
    lam = P("2 + cos(2*pi*z)")
    new, _ = transform_forms(torus, lam, ex.ONE, ex.ZERO, policy)
    assert contactomorphism(torus, new, lam, ex.ONE, ex.ZERO, policy).ok


def test_contactomorphism_rescale_beta(torus, policy):
    mu = P("2 + sin(2*pi*z)")
    new, _ = transform_forms(torus, ex.ONE, mu, ex.ZERO, policy)
    assert contactomorphism(torus, new, ex.ONE, mu, ex.ZERO, policy).ok


def test_contactomorphism_shear(torus, policy):
    nu = P("sin(2*pi*z)")
    new, _ = transform_forms(torus, ex.ONE, ex.ONE, nu, policy)
    assert contactomorphism(torus, new, ex.ONE, ex.ONE, nu, policy).ok


def graph_recovery(data, nu, policy):
    """Restricting eta to s = nu gives beta + nu alpha, and restricting
    its s-derivative gives alpha."""
    sp5, eta = contact_form(data)
    beta_rec = restrict_to_section(eta, nu, data.space)
    alpha_rec = restrict_to_section(lie_form(sp5.basis_field(sp5.dim - 1),
                                             eta), ex.ZERO, data.space)
    ranges = data.space.coord_ranges
    return (zero(beta_rec - (data.beta + data.alpha.scale(nu)), ranges,
                 policy),
            zero(alpha_rec - data.alpha, ranges, policy))


def test_graph_recovery_constant_section(torus, policy):
    recovered = graph_recovery(torus, ex.rat(Fraction(1, 3)), policy)
    assert all(v.ok for v in recovered)


def test_graph_recovery_function_section(torus, policy):
    recovered = graph_recovery(torus, P("1/2*cos(2*pi*z)"), policy)
    assert all(v.ok for v in recovered)


def test_restrict_kills_interval_leg(torus):
    sp5, eta = contact_form(torus)
    deta = d(eta)
    restricted = restrict_to_section(deta, ex.ZERO, torus.space)
    assert restricted.degree == 2
    for idx in restricted.comps:
        assert all(i < 4 for i in idx)
    # at s = 0 the graph is the zero section, so eta restricts to beta
    base = restrict_to_section(eta, ex.ZERO, torus.space)
    diff = base - torus.beta
    assert all(ex.cleanup(c) == ex.ZERO for c in diff.comps.values())


def test_nil4_contactomorphism(nil4, policy):
    new, _ = transform_forms(nil4, ex.rat(2), ex.ONE, ex.ZERO, policy)
    verdict = contactomorphism(nil4, new, ex.rat(2), ex.ONE, ex.ZERO, policy)
    assert verdict.kind == "exact"
