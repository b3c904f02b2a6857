"""The triple check, the adapted K-Engel framing, and the metric a section
of the plane field induces."""

import math
from fractions import Fraction

import pytest

from engelkit import expr as ex
from engelkit.engel import analyze
from engelkit.frames import FrameSpace, bracket
from engelkit.kengel import (KEngelError, certify, failing, form_conditions,
                             kengel_check, kengel_framing, kengel_invariants)
from engelkit.metric import framing_metric, orthonormal_metric
from engelkit.sampling import failed, is_zero_many

TAU = 2 * math.pi


def prolong_space(k):
    """Invariant 3-frame [A,B] = C, [B,C] = kA, [C,A] = kB, plus a circle."""
    return FrameSpace(
        [("lie", "A"), ("lie", "B"), ("lie", "C"),
         ("coord", "t", 0, TAU, True)],
        brackets={("A", "B"): [0, 0, 1, 0],
                  ("B", "C"): [k, 0, 0, 0],
                  ("C", "A"): [0, k, 0, 0]})


def lorentz_data(policy, k=1):
    """Turning the frame inside the plane spanned with the circle."""
    sp = prolong_space(k)
    alpha = sp.one_form([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                         ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(t)"), sp.scalar("cos(t)"),
                        ex.ZERO, ex.ZERO])
    W = sp.field([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                  ex.rat(-1), ex.rat(k + 1)])
    return analyze(sp, alpha, beta, policy, W=W, X=sp.basis_field(3))


def cartan_data(policy, k=-1):
    """Turning the frame transverse to the circle direction."""
    sp = prolong_space(k)
    alpha = sp.one_form([ex.ZERO, ex.ZERO, ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(t)"), sp.scalar("cos(t)"),
                        ex.ZERO, ex.ZERO])
    X = sp.field([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                  ex.ZERO, ex.ZERO])
    return analyze(sp, alpha, beta, policy, W=sp.basis_field(3), X=X)


def field_is_zero(V, policy):
    return is_zero_many([ex.cleanup(c) for c in V.comps],
                        V.space.coord_ranges, policy).ok


def form_is_zero(w, policy):
    return is_zero_many([ex.cleanup(c) for c in w.comps.values()]
                        or [ex.ZERO], w.space.coord_ranges, policy).ok


# -- form conditions and invariants ----------------------------------------

def test_form_conditions_torus(torus, policy):
    out = form_conditions(torus.space, torus.alpha, torus.beta, policy)
    assert sorted(out) == ["beta ^ d(alpha)", "d(alpha)^2", "d(beta)^2"]
    assert all(v.ok for v in out.values())
    assert out["beta ^ d(alpha)"].kind == "exact"


def test_kengel_invariants_torus(torus, policy):
    out = kengel_invariants(torus, policy)
    ok = not failed(out)
    assert ok
    assert out["[W,R]"].kind == "exact"
    assert out["R(a_WX)"].kind == "exact"
    assert out["b_WX"].ok
    assert out["d_WR"].ok
    assert out["b_XT + a_WT"].ok


def test_kengel_invariants_nil4(nil4, policy):
    out = kengel_invariants(nil4, policy)
    ok = not failed(out)
    assert ok
    assert all(v.kind == "exact" for v in out.values())


# -- the triple check --------------------------------------------------------

def test_kengel_check_torus_reeb(torus, policy):
    g = orthonormal_metric(torus)
    report = kengel_check(torus, g, torus.R, policy)
    assert report["ok"]
    assert report["engel"]["[Z,W] stays in the plane"].ok
    assert report["orthogonal"]["g(Z,[W,X])"].ok
    assert all(v.ok for v in report["killing"].values())


def test_kengel_check_nil4_exact(nil4, policy):
    report = kengel_check(nil4, orthonormal_metric(nil4), nil4.R, policy)
    assert report["ok"]
    for verdict in report["engel"].values():
        assert verdict.kind == "exact"


def test_kengel_check_rejects_circle_direction(torus, policy):
    # the circle direction drags the plane field around, is not Killing
    # for the framing metric, and is not orthogonal to the section
    g = orthonormal_metric(torus)
    Z = torus.space.basis_field(3)
    report = kengel_check(torus, g, Z, policy)
    assert not report["ok"]
    assert not report["engel"]["[Z,W] stays in the plane"].ok
    assert not report["orthogonal"]["g(Z,X)"].ok
    assert not all(v.ok for v in report["killing"].values())


# -- the adapted framing -----------------------------------------------------

def test_kengel_framing_torus_keeps_forms(torus, policy):
    kd = kengel_framing(torus, orthonormal_metric(torus), torus.R, policy)
    # alpha(R) = 1 already, and beta = -L_X alpha holds on the nose
    assert form_is_zero(kd.data.alpha - torus.alpha, policy)
    assert form_is_zero(kd.data.beta - torus.beta, policy)
    assert field_is_zero(kd.Z - torus.R, policy)
    assert kd.rank is None


def test_kengel_framing_rejects_circle_direction(torus, policy):
    with pytest.raises(KEngelError, match="triple check fails"):
        kengel_framing(torus, orthonormal_metric(torus),
                       torus.space.basis_field(3), policy)


def test_lorentz_prolongation_table(policy):
    data = lorentz_data(policy)
    expected = {"c_WX": 1, "a_XT": 1, "b_XT": 1, "d_XT": 1,
                "a_WT": -1, "b_WT": -2}
    for key, val in data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert data.u == ex.ONE
    assert data.v == ex.rat(-1)
    assert list(data.R.comps) == [ex.ZERO, ex.ZERO, ex.ONE, ex.rat(-1)]


def test_lorentz_prolongation_is_kengel(policy):
    data = lorentz_data(policy)
    kd = kengel_framing(data, orthonormal_metric(data), data.R, policy)
    out = kengel_invariants(kd.data, policy)
    ok = not failed(out)
    assert ok
    assert all(v.kind == "exact" for v in out.values())


def test_cartan_prolongation_table(policy):
    data = cartan_data(policy)
    expected = {"c_WX": 1, "a_XT": -1, "d_XT": 1, "b_WT": -1}
    for key, val in data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert data.u == ex.ONE
    assert data.v == ex.ONE
    # the direction commuting with the framing is C + dt, not C - dt
    assert list(data.R.comps) == [ex.ZERO, ex.ZERO, ex.ONE, ex.ONE]


def test_cartan_prolongation_is_kengel(policy):
    data = cartan_data(policy)
    kd = kengel_framing(data, orthonormal_metric(data), data.R, policy)
    out = kengel_invariants(kd.data, policy)
    ok = not failed(out)
    assert ok


def test_cartan_flipped_circle_direction_fails(policy):
    # C - dt (at k = -1) drags the section: [C - dt, X] = -2 [W, X]
    data = cartan_data(policy)
    sp = data.space
    Z = sp.field([ex.ZERO, ex.ZERO, ex.ONE, ex.rat(-1)])
    drag = bracket(Z, data.X)
    assert not field_is_zero(drag, policy)
    assert field_is_zero(drag + bracket(data.W, data.X).scale(ex.rat(2)),
                         policy)
    report = kengel_check(data, orthonormal_metric(data), Z, policy)
    assert not report["ok"]
    assert not report["engel"]["[Z,X] stays in the plane"].ok


def test_kengel_framing_rescales_alpha(torus, policy):
    # 2R passes the triple check, so alpha is halved to make alpha(Z) = 1
    Z = torus.R.scale(ex.rat(2)).cleanup()
    kd = kengel_framing(torus, orthonormal_metric(torus), Z, policy, rank=1)
    half = ex.rat(Fraction(1, 2))
    assert form_is_zero(kd.data.alpha - torus.alpha.scale(half), policy)
    assert field_is_zero(kd.data.R - Z, policy)
    assert kd.rank == 1
    assert not failed(kengel_invariants(kd.data, policy))


def test_rank1_perturbation_identity(torus, policy):
    # re-fibring along R itself leaves the forms alone and carries the rank
    kd = kengel_framing(torus, orthonormal_metric(torus), torus.R, policy,
                        rank=1)
    assert form_is_zero(kd.data.alpha - torus.alpha, policy)
    assert form_is_zero(kd.data.beta - torus.beta, policy)
    assert kd.rank == 1


def test_rank1_perturbation_needs_commuting_field(torus, policy):
    # the circle direction does not commute with the framing: it drags W
    # out of the plane, and that is named among the failed checks
    with pytest.raises(KEngelError, match="triple check fails") as err:
        kengel_framing(torus, orthonormal_metric(torus),
                       torus.space.basis_field(3), policy, rank=1)
    assert "[Z,W] stays in the plane" in err.value.names


# -- the metric making the framing built from a section orthonormal ----------

def section_metric(data, X):
    return framing_metric(data.space, (data.W, X, data.T, data.R))


def test_converse_metric_torus(torus, policy):
    g = section_metric(torus, torus.X)
    assert kengel_check(torus, g, torus.R, policy)["ok"]
    gref = orthonormal_metric(torus)
    for i in range(4):
        for j in range(4):
            diff = ex.cleanup(ex.add(g.matrix[i][j],
                                     ex.neg(gref.matrix[i][j])))
            assert ex.normalize(diff) == ex.ZERO


def test_converse_metric_plain_circle_section(torus, policy):
    # any constant rescaling of the section gives another valid metric
    g = section_metric(torus, torus.space.basis_field(3))
    assert kengel_check(torus, g, torus.R, policy)["ok"]


def test_converse_metric_nil4_exact(nil4, policy):
    report = kengel_check(nil4, section_metric(nil4, nil4.X), nil4.R, policy)
    assert report["ok"]
    assert all(v.kind == "exact" for group in ("engel", "orthogonal")
               for v in report[group].values())


def test_converse_metric_needs_eigen_section(torus, policy):
    # adding z times W to the section makes [R, X] pick up a W-component,
    # and the R-flow no longer preserves the induced metric
    sp = torus.space
    z = sp.scalar("z")
    X = (sp.basis_field(3) + torus.W.scale(z)).cleanup()
    report = kengel_check(torus, section_metric(torus, X), torus.R, policy)
    assert failing(report) == ["Killing (x,t)", "Killing (y,t)",
                               "Killing (t,t)"]


def test_converse_metric_rejects_rescaling_flow(torus, policy):
    # a z-dependent rescaling of the section is dragged by the R-flow
    sp = torus.space
    f = sp.scalar("2 + sin(2*pi*z)")
    X = torus.X.scale(f).cleanup()
    report = kengel_check(torus, section_metric(torus, X), torus.R, policy)
    assert failing(report) == ["Killing (t,t)"]


def test_converse_metric_rejects_bad_forms(torus, policy):
    # rescaling beta by a z-dependent factor breaks d(beta)^2 = 0
    sp = torus.space
    f = sp.scalar("1 + cos(2*pi*z)/2")
    beta = torus.beta.scale(f).cleanup()
    data = analyze(sp, torus.alpha, beta, policy,
                   W=torus.W_raw, X=torus.X_raw)
    assert failed(form_conditions(sp, data.alpha, data.beta,
                                  policy)) == ["d(beta)^2"]


def test_certify_passes_the_reeb_direction(torus, policy):
    inv = certify(torus, torus.R, policy, "Reeb direction is not R",
                  "the torus")
    assert inv and not failed(inv)


def test_certify_names_a_failing_reeb_check(torus, policy):
    with pytest.raises(KEngelError,
                       match="^Reeb direction is not W: zero=no ") as err:
        certify(torus, torus.W, policy, "Reeb direction is not W",
                "the torus")
    assert err.value.names == ["Reeb direction"]
