from fractions import Fraction

import pytest

import engelkit.expr as ex
from engelkit.contact import (contact_form, contactization_report,
                              pullback_section_map, restrict_to_section,
                              thicken_space)
from engelkit.engel import transform_forms
from engelkit.frames import FrameSpace, d, lie_form, wedge, zero


def P(text, extra=()):
    return ex.parse(text, variables=("x", "y", "z", "t", "s") + tuple(extra))


def test_thicken_torus_space(torus):
    sp5 = thicken_space(torus.space)
    assert sp5.dim == 5
    assert sp5.names[-1] == "s"
    assert sp5.coord_ranges[-1] == ("s", -1.0, 1.0)


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


@pytest.mark.parametrize("h_text", ["1/2*s + sin(2*pi*z)",
                                    "1/2*s + sin(2*pi*x)"], ids=["z", "x"])
def test_pullback_with_interval_component(torus, h_text):
    # exercise the ds branch: pull back d(eta) and compare with d(pullback);
    # dh has a dx leg that sorts before the other legs of a ds component, so
    # the x section needs the reordering sign and the z section does not
    sp5, eta = contact_form(torus)
    h = P(h_text)
    pulled_then_d = d(pullback_section_map(eta, h, sp5))
    d_then_pulled = pullback_section_map(d(eta), h, sp5)
    diff = pulled_then_d - d_then_pulled
    assert all(ex.cleanup(c) == ex.ZERO for c in diff.comps.values())


def test_pullback_of_a_function_is_substitution(torus):
    sp5, _ = contact_form(torus)
    f, h = P("x*s + sin(2*pi*s)"), P("1/2*s + sin(2*pi*x)")
    pulled = pullback_section_map(sp5.form(0, {(): f}), h, sp5)
    assert pulled.degree == 0
    assert pulled.comps == {(): ex.normalize(ex.substitute(f, {"s": h}))}


def lie_box():
    """A coordinate x and invariant directions A, B with [A, B] = B,
    thickened by s (frame order x, A, B, s)."""
    return thicken_space(FrameSpace(
        [("coord", "x", 0, 1), ("lie", "A"), ("lie", "B")],
        brackets={("A", "B"): [0, 0, 1]}))


def test_pullback_commutes_with_wedge_and_d():
    sp5 = lie_box()
    h = sp5.scalar("x*s + s^2/2 + cos(x)")

    def pull(w):
        return pullback_section_map(w, h, sp5)

    def same(u, v):
        return all(ex.cleanup(c) == ex.ZERO for c in (u - v).comps.values())

    f = sp5.form(0, {(): sp5.scalar("x^2*s + s^3")})
    a = sp5.one_form([sp5.scalar(t) for t in ("s", "x*s^2", "1", "sin(s)")])
    b = sp5.one_form([sp5.scalar(t) for t in ("x", "s", "s^2", "x*s")])
    w2 = wedge(a, b) + sp5.form(2, {(1, 2): sp5.scalar("s^2"),
                                    (0, 3): sp5.scalar("cos(x)")})
    assert any(3 in idx for idx in pull(w2).comps)   # dh has a ds leg
    for u, v in ((f, a), (a, b), (a, w2), (b, w2)):
        assert same(pull(wedge(u, v)), wedge(pull(u), pull(v)))
    for w in (f, a, b, w2):
        assert same(pull(d(w)), d(pull(w)))


def contactomorphism(data, new, lam, mu, nu, policy):
    """Does (p, s) -> (p, (mu/lam) s - nu/lam) pull eta' back to mu eta?

    eta and eta' are the thickenings of the pair and of its transform
    (lam alpha, mu beta + nu alpha), each on its own thickened space.  The
    two frames must agree, so that eta's components can be read on the
    space of eta'.
    """
    sp, eta = contact_form(data)
    sp5, eta2 = contact_form(new)
    assert (sp.names, sp.kinds, sp.coord_ranges, sp.structure) == \
        (sp5.names, sp5.kinds, sp5.coord_ranges, sp5.structure)
    f = ex.cleanup(ex.div(mu, lam))
    g = ex.cleanup(ex.div(ex.neg(nu), lam))
    h = ex.add(ex.mul(f, ex.var("s")), g)
    pulled = pullback_section_map(eta2, h, sp5)
    eta = sp5.form(eta.degree, eta.comps)
    return zero(pulled - eta.scale(mu), sp5.coord_ranges, policy)


def test_contactomorphism_rescale_alpha(torus, policy):
    lam = P("2 + cos(2*pi*z)")
    new, _ = transform_forms(torus, "lam", lam, policy)
    assert contactomorphism(torus, new, lam, ex.ONE, ex.ZERO, policy).ok


def test_contactomorphism_rescale_beta(torus, policy):
    mu = P("2 + sin(2*pi*z)")
    new, _ = transform_forms(torus, "mu", mu, policy)
    assert contactomorphism(torus, new, ex.ONE, mu, ex.ZERO, policy).ok


def test_contactomorphism_shear(torus, policy):
    nu = P("sin(2*pi*z)")
    new, _ = transform_forms(torus, "nu", nu, policy)
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
    new, _ = transform_forms(nil4, "lam", ex.rat(2), policy)
    verdict = contactomorphism(nil4, new, ex.rat(2), ex.ONE, ex.ZERO, policy)
    assert verdict.kind == "exact"
