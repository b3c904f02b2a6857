from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from engelkit import expr as ex
from engelkit import frames
from engelkit.frames import (DiffForm, FrameError, FrameSpace, VectorField,
                             bracket, d, determinant, dual_coframe, fmt_field,
                             interior, kernel_line, lie_form, pair,
                             perm_sign, solve_kernel, wedge)
from engelkit.sampling import SamplingPolicy
from oracle import ExactLie, frac_det


def unit_box(*names):
    return FrameSpace([("coord", n, 0, 1) for n in names])


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
        FrameSpace([("coord", "x", 0, 0)])
    with pytest.raises(FrameError):
        FrameSpace([("coord", "x", 0, 1), ("coord", "x", 0, 1)])


def test_arithmetic_stays_on_one_space(torus, torus_alpha):
    # an equal frame on another space object is still another space
    other = unit_box("x", "y", "z", "t")
    alpha2 = other.one_form(list(torus_alpha.comps.get((i,), ex.ZERO)
                                 for i in range(4)))
    with pytest.raises(FrameError, match="different spaces"):
        torus_alpha + alpha2
    with pytest.raises(FrameError, match="different spaces"):
        torus_alpha - alpha2
    with pytest.raises(FrameError, match="add a 2-form to a 1-form"):
        torus_alpha + d(torus_alpha)
    V = torus.basis_field(0)
    with pytest.raises(FrameError, match="different spaces"):
        V + other.basis_field(0)
    with pytest.raises(FrameError, match="different spaces"):
        V - other.basis_field(1)
    assert (torus_alpha + torus_alpha).comp((2,)) == ex.rat(2)
    assert (V + torus.basis_field(1)).comps[:2] == (ex.ONE, ex.ONE)


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
                     ("coord", "t", 0, 1)],
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


def forms(space, degree, scalar=scalars):
    idxs = list(combinations(range(space.dim), degree))
    return st.tuples(*[scalar() for _ in idxs]).map(
        lambda cs: DiffForm(space, degree, dict(zip(idxs, cs))))


def fields(space, scalar=scalars):
    return st.tuples(*[scalar() for _ in range(space.dim)]).map(
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


# --- sparse bracket and pairing against the dense formulas ----------------

def dense_deriv(space, i, f):
    if space.kinds[i] == "coord":
        return ex.normalize(ex.differentiate(f, space.names[i]))
    return ex.ZERO


def dense_bracket(X, Y):
    """The bracket with every term built, zero or not."""
    sp = X.space
    n = sp.dim
    comps = []
    for k in range(n):
        terms = []
        for i in range(n):
            terms.append(ex.mul(X.comps[i], dense_deriv(sp, i, Y.comps[k])))
            terms.append(ex.neg(ex.mul(Y.comps[i],
                                       dense_deriv(sp, i, X.comps[k]))))
        for (i, j), vec in sp.structure.items():
            if vec[k]:
                coef = ex.add(ex.mul(X.comps[i], Y.comps[j]),
                              ex.neg(ex.mul(X.comps[j], Y.comps[i])))
                terms.append(ex.mul(ex.rat(vec[k]), coef))
        comps.append(ex.add(*terms) if terms else ex.ZERO)
    return VectorField(sp, comps)


def dense_pair(w, *fields):
    """The pairing with every permutation product built, zero or not."""
    terms = []
    for I, c in w.comps.items():
        for sigma in permutations(range(w.degree)):
            prod = [c]
            for slot, t in enumerate(sigma):
                prod.append(fields[slot].comps[I[t]])
            term = ex.mul(*prod)
            terms.append(term if perm_sign(sigma) == 1 else ex.neg(term))
    return ex.normalize(ex.add(*terms)) if terms else ex.ZERO


# x, y times the 3-dim algebra R acting on span{B, C}
MIXED = FrameSpace([("coord", "x", 0, 1), ("lie", "A"),
                    ("coord", "y", 0, 1), ("lie", "B"), ("lie", "C")],
                   brackets={("A", "B"): [0, 0, 0, 1, 2],
                             ("A", "C"): [0, 0, 0, -1, "1/2"]})


def sparse_scalars():
    return st.one_of(st.just(ex.ZERO), st.just(ex.ZERO), st.just(ex.ONE),
                     st.fractions(-2, 2, max_denominator=3).map(ex.rat)
                     .map(ex.normalize), scalars())


@given(fields(MIXED, sparse_scalars), fields(MIXED, sparse_scalars))
@settings(max_examples=80, deadline=None)
def test_bracket_equals_the_dense_bracket(X, Y):
    assert bracket(X, Y).comps == dense_bracket(X, Y).comps


@given(st.integers(1, 3).flatmap(lambda p: st.tuples(
    forms(MIXED, p, sparse_scalars),
    st.tuples(*[fields(MIXED, sparse_scalars)] * p))))
@settings(max_examples=30, deadline=None)
def test_pair_equals_the_dense_pair(w_fields):
    w, fs = w_fields
    assert pair(w, *fs) == dense_pair(w, *fs)


def test_bracket_of_constant_fields_builds_no_zero_term(monkeypatch):
    sp = FrameSpace([("lie", "A"), ("lie", "B"), ("lie", "C")],
                    brackets={("A", "B"): [0, 0, 1]})
    X = sp.field([ex.ONE, ex.ZERO, ex.rat(2)])
    Y = sp.field([ex.ZERO, ex.rat(3), ex.ZERO])
    derived, zero_products = [], []
    differentiate, mul = ex.differentiate, ex.mul

    def counted_differentiate(e, v):
        derived.append(e)
        return differentiate(e, v)

    def counted_mul(*factors):
        zero_products.extend(f for f in factors if ex.is_zero(f))
        return mul(*factors)

    monkeypatch.setattr(ex, "differentiate", counted_differentiate)
    monkeypatch.setattr(ex, "mul", counted_mul)
    assert bracket(X, Y).comps == (ex.ZERO, ex.ZERO, ex.rat(3))
    assert derived == [] and zero_products == []


def test_a_repeated_derivative_differentiates_once(torus, monkeypatch):
    ex.clear_tables()
    f = torus.scalar("x*sin(2*pi*t) + y^2")
    derived = []
    differentiate = ex.differentiate

    def counted(e, v):
        derived.append(e)
        return differentiate(e, v)

    monkeypatch.setattr(ex, "differentiate", counted)
    first = torus.dir_deriv(3, f)
    second = torus.dir_deriv(3, f)
    assert first is second == torus.scalar("2*pi*x*cos(2*pi*t)")
    assert sum(1 for e in derived if e is f) == 1


# --- the inverse: one expansion per minor, one inversion per matrix -------

def ref_det(rows):
    """The determinant by full Laplace recursion, sub-minors recomputed."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    terms = []
    for j in range(n):
        if ex.is_zero(rows[0][j]):
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j]
                 for i in range(1, n)]
        term = ex.mul(rows[0][j], ref_det(minor))
        terms.append(term if j % 2 == 0 else ex.neg(term))
    return ex.add(*terms) if terms else ex.ZERO


def ref_cramer(rows, rhs, det):
    n = len(rows)
    out = []
    for i in range(n):
        terms = []
        for j in range(n):
            if not ex.is_zero(rhs[j]):
                minor = [row[:i] + row[i + 1:]
                         for k, row in enumerate(rows) if k != j]
                term = ex.mul(rhs[j], ref_det(minor) if minor else ex.ONE)
                terms.append(term if (i + j) % 2 == 0 else ex.neg(term))
        out.append(ex.cleanup(ex.div(ex.cleanup(ex.add(*terms)), det)))
    return out


def ref_dual_coframe(fields):
    """Components of the dual coframe, each cofactor expanded afresh;
    None for dependent fields."""
    n = len(fields)
    det = ex.cleanup(ex.normalize(ref_det(
        [[f.comps[i] for f in fields] for i in range(n)])))
    if ex.is_zero(det):
        return None
    rows = [f.comps for f in fields]
    units = [[ex.ONE if j == k else ex.ZERO for j in range(n)]
             for k in range(n)]
    return [ref_cramer(rows, e, det) for e in units]


LIE4 = FrameSpace([("lie", n) for n in "ABCD"])
rational_entry = st.fractions(-3, 3, max_denominator=4)
rational_frame = st.lists(st.lists(rational_entry, min_size=4, max_size=4),
                          min_size=4, max_size=4)


def rational_fields(space, m):
    return [space.field([ex.rat(q) for q in col]) for col in m]


@given(rational_frame)
@settings(max_examples=40, deadline=None)
def test_dual_coframe_matches_the_oracle_inverse(m):
    fs = rational_fields(LIE4, m)
    want = frac_det([row[:] for row in m])
    assert determinant(fs) == ex.rat(want)
    if want == 0:
        with pytest.raises(FrameError, match="linearly dependent"):
            dual_coframe(fs)
        return
    oracle = ExactLie("ABCD", {}).dual_coframe(m)
    for theta, row in zip(dual_coframe(fs), oracle):
        assert theta.space is LIE4 and theta.degree == 1
        assert [theta.comp((i,)) for i in range(4)] == \
            [ex.rat(q) for q in row]


@given(st.one_of(st.tuples(*[fields(SP3)] * 3),
                 st.tuples(*[fields(MIXED, sparse_scalars)] * 5)))
@settings(max_examples=30, deadline=None)
def test_dual_coframe_equals_the_fresh_expansion(fs):
    fs = list(fs)
    n = len(fs)
    assert determinant(fs) == ex.normalize(ref_det(
        [[f.comps[i] for f in fs] for i in range(n)]))
    want = ref_dual_coframe(fs)
    if want is None:
        with pytest.raises(FrameError, match="linearly dependent"):
            dual_coframe(fs)
        return
    assert [[theta.comp((i,)) for i in range(n)]
            for theta in dual_coframe(fs)] == \
        [[ex.normalize(c) for c in comps] for comps in want]


def test_equal_matrices_on_two_spaces_give_forms_on_each():
    spaces = [FrameSpace([("lie", n) for n in "ABCD"]) for _ in range(2)]
    m = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
    coframes = [dual_coframe(rational_fields(sp, m)) for sp in spaces]
    for sp, theta in zip(spaces, coframes):
        assert all(t.space is sp for t in theta)
    assert [t.comps for t in coframes[0]] == [t.comps for t in coframes[1]]


def test_a_repeated_coframe_inverts_once(torus, monkeypatch):
    monkeypatch.setattr(frames, "_COFRAMES", {})
    solves = []
    cramer = frames.cramer

    def counted(rows, rhs, det):
        solves.append(rhs)
        return cramer(rows, rhs, det)

    monkeypatch.setattr(frames, "cramer", counted)
    W = torus.field([torus.scalar("cos(2*pi*t)"), torus.scalar("sin(2*pi*t)"),
                     ex.ONE, ex.ZERO])
    X, R = torus.basis_field(3), torus.basis_field(2)
    T = torus.field([torus.scalar("-sin(2*pi*t)"), torus.scalar("cos(2*pi*t)"),
                     ex.ZERO, ex.ZERO])
    first = dual_coframe([W, X, T, R])
    assert len(solves) == 4
    second = dual_coframe([W, X, T, R])
    assert len(solves) == 4
    assert [t.comps for t in first] == [t.comps for t in second]


def test_coframes_stay_right_when_the_tables_are_dropped(monkeypatch):
    monkeypatch.setattr(frames, "_COFRAMES", {})
    frames_in = [[[1, q, 0, 0], [0, 1, 0, 0], [0, 0, 2, q], [q, 0, 0, 1]]
                 for q in range(-3, 4)]
    want = [[t.comps for t in dual_coframe(rational_fields(LIE4, m))]
            for m in frames_in]
    monkeypatch.setattr(frames, "_COFRAMES", {})
    monkeypatch.setattr(ex, "TABLE_LIMIT", 3)  # both tables drop often
    for m in frames_in + frames_in:
        got = dual_coframe(rational_fields(LIE4, m))
        assert [t.comps for t in got] == want[frames_in.index(m)]
        assert len(frames._COFRAMES) <= 4


@pytest.mark.parametrize("make, what", [(determinant, "determinant"),
                                        (dual_coframe, "coframe")])
def test_a_frame_needs_one_field_per_direction(torus, make, what):
    fields3 = [torus.basis_field(i) for i in range(3)]
    with pytest.raises(FrameError, match=f"a {what} needs 4 fields"):
        make(fields3)
