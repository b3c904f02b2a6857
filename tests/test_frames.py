import pytest
from hypothesis import given, settings, strategies as st

from engelkit import expr as ex
from engelkit.frames import (DiffForm, FrameError, FrameSpace, VectorField,
                             bracket, d, determinant, dual_coframe, fmt_field,
                             interior, kernel_line, lie_form, pair,
                             solve_kernel, wedge)
from engelkit.sampling import SamplingPolicy


def unit_box(*names, periodic=True):
    return FrameSpace([("coord", n, 0, 1, periodic) for n in names])


@pytest.fixture
def torus():
    return unit_box("x", "y", "z", "t")


@pytest.fixture
def torus_alpha(torus):
    return torus.one_form([torus.scalar("-cos(2*pi*t)"),
                           torus.scalar("-sin(2*pi*t)"),
                           ex.ONE, ex.ZERO])


def test_space_validation():
    with pytest.raises(FrameError):
        FrameSpace([("coord", "x", 0, 0, True)])
    with pytest.raises(FrameError):
        FrameSpace([("coord", "x", 0, 1, True), ("coord", "x", 0, 1, True)])
    with pytest.raises(FrameError):
        FrameSpace([("lie", "A"), ("lie", "B"), ("lie", "C")],
                   brackets={("A", "B"): [0, 0, 1],
                             ("A", "C"): [1, 0, 0],
                             ("B", "C"): [0, 1, 0]})  # fails Jacobi


def test_exterior_derivative_chart(torus, torus_alpha):
    da = d(torus_alpha)
    assert da.comp((0, 3)) == torus.scalar("-2*pi*sin(2*pi*t)")
    assert da.comp((1, 3)) == torus.scalar("2*pi*cos(2*pi*t)")
    assert set(da.comps) == {(0, 3), (1, 3)}


def test_exterior_derivative_lie():
    heis = FrameSpace([("lie", "A"), ("lie", "B"), ("lie", "C")],
                      brackets={("A", "B"): [0, 0, 1]})
    c_dual = heis.one_form([ex.ZERO, ex.ZERO, ex.ONE])
    dc = d(c_dual)
    assert dc.comps == {(0, 1): ex.rat(-1)}
    assert d(dc).is_structurally_zero()


def test_bracket_chart(torus):
    W = torus.field([torus.scalar("cos(2*pi*t)"), torus.scalar("sin(2*pi*t)"),
                     ex.ONE, ex.ZERO])
    X = torus.basis_field(3)
    XW = bracket(X, W)
    assert XW.comps[0] == torus.scalar("-2*pi*sin(2*pi*t)")
    assert XW.comps[1] == torus.scalar("2*pi*cos(2*pi*t)")
    assert XW.comps[2] == ex.ZERO and XW.comps[3] == ex.ZERO
    WX = bracket(W, X)
    assert WX.comps[0] == torus.scalar("2*pi*sin(2*pi*t)")


def test_bracket_lie_structure():
    heis = FrameSpace([("lie", "A"), ("lie", "B"), ("lie", "C")],
                      brackets={("A", "B"): [0, 0, 1]})
    A, B, C = (heis.basis_field(i) for i in range(3))
    assert bracket(A, B).comps == C.comps
    assert bracket(B, A).comps == C.scale(ex.rat(-1)).comps
    assert bracket(A, C).comps == (ex.ZERO,) * 3


def test_mixed_product_directions():
    sp = FrameSpace([("lie", "A"), ("lie", "B"), ("lie", "C"),
                     ("coord", "t", 0, 1, True)],
                    brackets={("A", "B"): [0, 0, 1, 0]})
    A = sp.basis_field(0)
    T = sp.basis_field(3)
    assert bracket(A, T).comps == (ex.ZERO,) * 4
    f = sp.scalar("sin(2*pi*t)")
    assert sp.lie_scalar(A, f) == ex.ZERO
    assert sp.lie_scalar(T, f) == sp.scalar("2*pi*cos(2*pi*t)")


def test_wedge_and_pair(torus, torus_alpha):
    da = d(torus_alpha)
    w3 = wedge(torus_alpha, da)
    # alpha ^ dalpha is the nonintegrability obstruction: here nonzero
    assert not w3.is_structurally_zero()
    W = torus.field([torus.scalar("cos(2*pi*t)"), torus.scalar("sin(2*pi*t)"),
                     ex.ONE, ex.ZERO])
    assert ex.cleanup(pair(torus_alpha, W)) == ex.ZERO
    contracted = interior(W, w3)
    assert all(ex.cleanup(c) == ex.ZERO for c in contracted.comps.values())


def test_pair_antisymmetry(torus, torus_alpha):
    da = d(torus_alpha)
    X = torus.basis_field(0)
    Y = torus.basis_field(3)
    assert pair(da, X, Y) == ex.normalize(ex.neg(pair(da, Y, X)))


def test_determinant_and_dual_coframe(torus):
    W = torus.field([torus.scalar("cos(2*pi*t)"), torus.scalar("sin(2*pi*t)"),
                     ex.ONE, ex.ZERO])
    X = torus.basis_field(3)
    T = torus.field([torus.scalar("-sin(2*pi*t)"), torus.scalar("cos(2*pi*t)"),
                     ex.ZERO, ex.ZERO])
    R = torus.basis_field(2)
    det = ex.cleanup(determinant([W, X, T, R]))
    assert det == ex.ONE
    theta = dual_coframe([W, X, T, R])
    # the T-dual leg recovers the closed span form, cleaned to polynomials
    assert theta[2].comps == {(0,): torus.scalar("-sin(2*pi*t)"),
                              (1,): torus.scalar("cos(2*pi*t)")}
    assert theta[3].comps == {(0,): torus.scalar("-cos(2*pi*t)"),
                              (1,): torus.scalar("-sin(2*pi*t)"),
                              (2,): ex.ONE}
    for k, f in enumerate([W, X, T, R]):
        for m, g in enumerate([W, X, T, R]):
            want = ex.ONE if k == m else ex.ZERO
            assert ex.cleanup(pair(theta[k], g)) == want


def test_lie_form_invariance(torus, torus_alpha):
    R = torus.basis_field(2)
    assert lie_form(R, torus_alpha).is_structurally_zero()
    X = torus.basis_field(3)
    lxa = lie_form(X, torus_alpha)
    assert lxa.comp((0,)) == torus.scalar("2*pi*sin(2*pi*t)")


def test_solve_kernel_characteristic(torus, torus_alpha):
    # the characteristic line needs no solve: it is kernel_line(alpha ^
    # dalpha), here normalized by its third component
    K = kernel_line(wedge(torus_alpha, d(torus_alpha)))
    W = K.scale(ex.div(ex.ONE, K.comps[2])).cleanup()
    assert W.comps == (torus.scalar("cos(2*pi*t)"),
                       torus.scalar("sin(2*pi*t)"), ex.ONE, ex.ZERO)


def test_solve_kernel_one_form_targets(torus, torus_alpha):
    beta = torus.one_form([torus.scalar("-sin(2*pi*t)"),
                           torus.scalar("cos(2*pi*t)"), ex.ZERO, ex.ZERO])
    # the span-transverse direction: i_T (alpha ^ dbeta) = 0, beta(T) = 1,
    # alpha(T) = 0, from the kernel line of alpha ^ dbeta over beta(K)
    K = kernel_line(wedge(torus_alpha, d(beta)))
    T = K.scale(ex.div(ex.ONE, pair(beta, K))).cleanup()
    assert T.comps == (torus.scalar("-sin(2*pi*t)"),
                       torus.scalar("cos(2*pi*t)"), ex.ZERO, ex.ZERO)
    assert ex.cleanup(pair(torus_alpha, T)) == ex.ZERO


def test_solve_kernel_degenerate_reports_failure():
    sp = unit_box("x", "y")
    pol = SamplingPolicy(n_samples=16)
    # theta(V) = 1 with theta = 0 is unsolvable
    theta = sp.one_form([ex.ZERO, ex.ZERO])
    assert solve_kernel(sp, [(theta, ex.ONE)], pol) is None


def test_render_field(torus):
    T = torus.field([torus.scalar("-sin(2*pi*t)"), torus.scalar("cos(2*pi*t)"),
                     ex.ZERO, ex.ZERO])
    assert fmt_field(T) == "-sin(2*pi*t); cos(2*pi*t); 0; 0"
    assert fmt_field(torus.basis_field(2)) == "0; 0; 1; 0"


# --- property tests -------------------------------------------------------

def scalars():
    leaf = st.one_of(st.integers(-3, 3).map(ex.rat),
                     st.sampled_from(["x", "y"]).map(ex.var))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
            sub.map(ex.sin),
        ),
        max_leaves=5,
    ).map(ex.normalize)


def forms(space, degree):
    from itertools import combinations
    idxs = list(combinations(range(space.dim), degree))
    return st.tuples(*[scalars() for _ in idxs]).map(
        lambda cs: DiffForm(space, degree, dict(zip(idxs, cs))))


def fields(space):
    return st.tuples(*[scalars() for _ in range(space.dim)]).map(
        lambda cs: VectorField(space, list(cs)))


SP3 = unit_box("x", "y", "w")


@given(forms(SP3, 1))
@settings(max_examples=40, deadline=None)
def test_d_squared_zero(w):
    assert d(d(w)).is_structurally_zero()


@given(forms(SP3, 1), forms(SP3, 1))
@settings(max_examples=40, deadline=None)
def test_wedge_anticommutes(a, b):
    lhs = wedge(a, b)
    rhs = wedge(b, a).scale(ex.rat(-1))
    assert lhs.comps == rhs.comps


@given(forms(SP3, 1), forms(SP3, 1))
@settings(max_examples=40, deadline=None)
def test_leibniz(a, b):
    lhs = d(wedge(a, b))
    rhs = wedge(d(a), b) + wedge(a, d(b)).scale(ex.rat(-1))
    assert lhs.comps == rhs.comps


@given(fields(SP3), fields(SP3), fields(SP3))
@settings(max_examples=25, deadline=None)
def test_field_jacobi(X, Y, Z):
    total = (bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X))
             + bracket(Z, bracket(X, Y)))
    assert total.comps == (ex.ZERO,) * 3


@given(fields(SP3), forms(SP3, 1))
@settings(max_examples=25, deadline=None)
def test_cartan_pairing(V, w):
    # L_V w (U) = V(w(U)) - w([V, U]) for a constant U
    U = SP3.basis_field(1)
    lhs = pair(lie_form(V, w), U)
    rhs = ex.normalize(ex.add(SP3.lie_scalar(V, pair(w, U)),
                              ex.neg(pair(w, bracket(V, U)))))
    assert lhs == rhs
