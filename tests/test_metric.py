from fractions import Fraction

import engelkit.expr as ex
from engelkit.metric import (Metric, bracket_pattern_report, framing_metric,
                             killing_report, orthonormal_metric,
                             tangency_expr, tangency_report)
from engelkit.sampling import failed


def test_torus_metric_is_orthonormal_on_framing(torus):
    g = orthonormal_metric(torus)
    frame = torus.framing()
    for i, U in enumerate(frame):
        for j, V in enumerate(frame):
            want = ex.ONE if i == j else ex.ZERO
            assert g.inner(U, V) == want


def test_nil4_metric_matrix_is_constant(nil4):
    g = orthonormal_metric(nil4)
    # the framing is a rational combination of the Lie basis, so every
    # matrix entry is a rational constant
    for row in g.matrix:
        for entry in row:
            assert entry == ex.ZERO or entry[0] == "rat"


def test_dual_fields_recover_reeb_pair(torus):
    g = orthonormal_metric(torus)
    A = g.dual_field(torus.alpha)
    B = g.dual_field(torus.beta)
    assert all(ex.cleanup(ex.add(a, ex.neg(r))) == ex.ZERO
               for a, r in zip(A.comps, torus.R.comps))
    assert all(ex.cleanup(ex.add(b, ex.neg(t))) == ex.ZERO
               for b, t in zip(B.comps, torus.T.comps))


def test_weighted_framing_metric_inner_products(nil4):
    w = [ex.rat(2), ex.ONE, ex.ONE, ex.rat(3)]
    g = framing_metric(nil4.space, nil4.framing(), w)
    assert g.inner(nil4.W, nil4.W) == ex.rat(2)
    assert g.inner(nil4.R, nil4.R) == ex.rat(3)
    assert g.inner(nil4.W, nil4.R) == ex.ZERO


def test_nil4_killing(nil4, policy):
    g = orthonormal_metric(nil4)
    out = killing_report(g, nil4.R, policy)
    all_zero = not failed(out)
    assert all_zero
    assert len(out) == 10
    assert all(v.kind == "exact" for v in out.values())


def test_torus_killing(torus, policy):
    g = orthonormal_metric(torus)
    out = killing_report(g, torus.R, policy)
    all_zero = not failed(out)
    assert all_zero
    # the interval direction is not Killing: the matrix varies along it
    flat = not failed(killing_report(g, torus.X, policy))
    assert not flat


def test_torus_plane_not_geodesic(torus, policy):
    g = orthonormal_metric(torus)
    rep = tangency_report(torus, g, "D", policy)
    assert not rep["totally geodesic"]
    assert rep["witness"] == ("(W,X;T)", "1")


def test_nil4_plane_geodesic(nil4, policy):
    g = orthonormal_metric(nil4)
    rep = tangency_report(nil4, g, "D", policy)
    assert rep["totally geodesic"]
    assert all(v.kind == "exact" for _, v in rep["checks"].values())


def test_reeb_plane_never_geodesic(torus, nil4, policy):
    for data in (torus, nil4):
        g = orthonormal_metric(data)
        rep = tangency_report(data, g, "R", policy)
        assert not rep["totally geodesic"]
        assert rep["witness"] == ("(T,R;X)", "-1")


def test_tangency_expr_values(nil4):
    g = orthonormal_metric(nil4)
    # (W,X;T) obstruction is b_WT + a_XT, zero here
    assert tangency_expr(g, nil4.W, nil4.X, nil4.T) == ex.ZERO
    # (T,R;X) obstruction is -d_XT - c_XR = -1
    assert tangency_expr(g, nil4.T, nil4.R, nil4.X) == ex.rat(-1)


def test_bracket_pattern(torus, nil4, policy):
    out = bracket_pattern_report(nil4, policy)
    all_zero = not failed(out)
    assert all_zero
    assert len(out) == 11
    out = bracket_pattern_report(torus, policy)
    all_zero = not failed(out)
    assert not all_zero
    assert not out["a_XT + b_WT"].ok
    assert out["a_WR"].ok


def test_metric_rejects_asymmetric_matrix(torus):
    n = torus.space.dim
    m = [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]
    m[0][1] = ex.ONE
    try:
        Metric(torus.space, m)
    except AssertionError:
        pass
    else:
        raise AssertionError("expected a symmetry failure")


def test_weighted_metric_determinant(nil4):
    g = framing_metric(nil4.space, nil4.framing(),
                       [ex.rat(Fraction(1, 2)), ex.ONE, ex.rat(2), ex.ONE])
    A = g.dual_field(nil4.alpha)
    # alpha = R-dual leg, so its dual field is R / g(R,R)
    assert all(ex.cleanup(ex.add(a, ex.neg(r))) == ex.ZERO
               for a, r in zip(A.comps, nil4.R.comps))
