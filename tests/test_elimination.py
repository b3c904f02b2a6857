"""The exact eliminator behind rational_det, rational_rank, commutant and
the all-rational dual coframe, checked against the independent Fraction
oracle and the symbolic Laplace/Cramer path, on integer entries and on
fractions with denominators up to 6, as the catalog sweep draws them; and
the minors behind the lattice rank, over Q(sqrt2, sqrt3), against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from engelkit import expr as ex
from engelkit.catalog import (CatalogError, algebra, commutant,
                              kengel_framing_search)
from engelkit.frames import (FrameError, FrameSpace, clear_denominators,
                             cramer, dual_coframe, minor, rational_det,
                             reduce_rows)
from engelkit.qfield import rational_rank, surd_terms
from oracle import (ExactLie, frac_det, frac_rank, frac_rref,
                    surd_coefficients)

entry = st.integers(min_value=-3, max_value=3)
# a fraction as the sweep draws a weight, zero a quarter of the time
fraction = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 6)),
                     st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 6)),
                     st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 6)))


def matrix(nrows, ncols, elements=entry):
    return st.lists(st.lists(elements, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def product(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


# products of a tall and a wide factor have rank at most the inner size,
# so rank-deficient inputs are as common as full-rank ones
low_rank = st.tuples(st.integers(1, 5), st.integers(1, 3),
                     st.integers(1, 5)).flatmap(
    lambda s: st.tuples(matrix(s[0], s[1]), matrix(s[1], s[2])))


@settings(max_examples=80, deadline=None)
@given(m=matrix(4, 4))
def test_det4_matches_oracle(m):
    columns = [[m[i][j] for i in range(4)] for j in range(4)]
    assert rational_det(columns) == frac_det(fractions(m))


@settings(max_examples=80, deadline=None)
@given(factors=low_rank)
def test_rational_rank_matches_oracle(factors):
    rows = product(*factors)
    assert rational_rank(rows) == frac_rank(rows)


sparse = st.sampled_from([0, 0, 0, 1, -1, 2])
bracket_table = st.lists(st.lists(sparse, min_size=4, max_size=4),
                         min_size=6, max_size=6)
PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
NAMES = ["A", "B", "C", "D"]


@settings(max_examples=80, deadline=None)
@given(table=bracket_table,
       elements=st.lists(st.lists(sparse, min_size=4, max_size=4),
                         min_size=1, max_size=3))
def test_commutant_matches_oracle(table, elements):
    # the commutant is a nullspace, so Jacobi is not needed here
    lie = algebra(NAMES, dict(zip(PAIRS, table)))
    oracle = ExactLie(NAMES, {
        (NAMES[i], NAMES[j]): {NAMES[k]: c for k, c in enumerate(vec)}
        for (i, j), vec in zip(PAIRS, table)})
    assert commutant(lie, elements) == oracle.commutant(fractions(elements))


@settings(max_examples=80, deadline=None)
@given(nrows=st.integers(1, 5), ncols=st.integers(1, 4),
       extra=st.integers(0, 2), data=st.data())
def test_reduce_rows_divided_by_its_pivot_is_the_rref(nrows, ncols, extra,
                                                      data):
    m = data.draw(matrix(nrows, ncols + extra, fraction))
    if nrows > 1 and data.draw(st.booleans()):   # a dependent row
        m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
    rows = [clear_denominators(row)[0] for row in m]
    pivots, det = reduce_rows(rows, ncols)
    want_pivots, want = frac_rref(m, ncols)
    assert pivots == want_pivots
    assert all(type(x) is int for row in rows for x in row)
    d = rows[0][pivots[0]] if pivots else 1
    assert all(rows[r][c] == d for r, c in enumerate(pivots))
    k = len(pivots)
    assert [[Fraction(x, d) for x in row] for row in rows[:k]] == want[:k]
    if nrows == ncols:
        scale = 1
        for row in m:
            scale *= clear_denominators(row)[1]
        assert Fraction(det, scale) == frac_det(
            [row[:ncols] for row in m])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), dependent=st.integers(0, 2), data=st.data())
def test_a_rational_frame_solves_as_laplace_and_cramer(n, dependent, data):
    """On an all-invariant space, rational fields take `reduce_rows` in
    `dual_coframe`, which returns the nodes the symbolic path does:
    `cramer` over the `minor` determinant cleaned up.  A third of the
    matrices repeat a combination of the rows above in the last row, so
    they are singular."""
    m = data.draw(matrix(n, n, fraction))
    if dependent == 0:
        coeffs = data.draw(st.lists(fraction, min_size=n - 1,
                                    max_size=n - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m))
                 for j in range(n)]
    sp = FrameSpace([("lie", f"e{i}") for i in range(n)])
    fields = [sp.field([ex.rat(x) for x in row]) for row in m]
    every = tuple(range(n))
    det = minor([[f.comps[i] for f in fields] for i in range(n)], every,
                every, {})
    if ex.is_zero(det):
        with pytest.raises(FrameError,
                           match="^frame fields are linearly dependent$"):
            dual_coframe(fields)
        return
    rows = [f.comps for f in fields]
    for k, theta in enumerate(dual_coframe(fields)):
        unit = [ex.ONE if j == k else ex.ZERO for j in range(n)]
        want = cramer(rows, unit, ex.cleanup(det))
        assert repr([theta.comp((i,)) for i in range(n)]) == repr(want)


@settings(max_examples=80, deadline=None)
@given(m=matrix(4, 4, fraction))
def test_det4_of_fraction_columns_matches_oracle(m):
    columns = [[m[i][j] for i in range(4)] for j in range(4)]
    got = rational_det(columns)
    assert type(got) is Fraction and got == frac_det(m)


fraction_low_rank = st.tuples(st.integers(1, 5), st.integers(1, 3),
                              st.integers(1, 5)).flatmap(
    lambda s: st.tuples(matrix(s[0], s[1], fraction),
                        matrix(s[1], s[2], fraction)))


@settings(max_examples=80, deadline=None)
@given(factors=fraction_low_rank)
def test_rational_rank_of_fraction_rows_matches_oracle(factors):
    rows = product(*factors)
    assert rational_rank(rows) == frac_rank(rows)


@settings(max_examples=80, deadline=None)
@given(table=st.lists(st.lists(fraction, min_size=4, max_size=4),
                      min_size=6, max_size=6),
       elements=st.lists(st.lists(fraction, min_size=4, max_size=4),
                         min_size=1, max_size=3))
def test_commutant_of_a_fractional_algebra_matches_oracle(table, elements):
    lie = algebra(NAMES, dict(zip(PAIRS, table)))
    oracle = ExactLie(NAMES, {
        (NAMES[i], NAMES[j]): {NAMES[k]: c for k, c in enumerate(vec)}
        for (i, j), vec in zip(PAIRS, table)})
    got = commutant(lie, elements)
    assert got == oracle.commutant(elements)
    assert all(type(c) is Fraction for vec in got for c in vec)


@settings(max_examples=80, deadline=None)
@given(table=st.lists(st.lists(fraction, min_size=4, max_size=4),
                      min_size=6, max_size=6),
       W=st.lists(fraction, min_size=4, max_size=4),
       X=st.lists(fraction, min_size=4, max_size=4))
@example(   # Sol4(1/4, 0, -1/4): R = X2 is found
    table=[[0] * 4, [0] * 4, [Fraction(-1, 4), 0, 0, 0], [0] * 4, [0] * 4,
           [0, 0, Fraction(1, 4), 0]],
    W=[Fraction(1, 2)] * 3 + [0], X=[0, 0, 0, Fraction(3, 2)])
def test_framing_search_on_fractional_vectors_matches_oracle(table, W, X):
    lie = algebra(NAMES, dict(zip(PAIRS, table)))
    oracle = ExactLie(NAMES, {
        (NAMES[i], NAMES[j]): {NAMES[k]: c for k, c in enumerate(vec)}
        for (i, j), vec in zip(PAIRS, table)})
    Y = oracle.bracket(W, X)
    span = [W, X, Y, oracle.bracket(Y, W), oracle.bracket(Y, X)]
    if frac_rank(span) < 4:
        with pytest.raises(CatalogError, match="bracket-generate"):
            kengel_framing_search(lie, W, X)
        return
    res = kengel_framing_search(lie, W, X)
    assert res["Y"] == Y
    assert res["commutant"] == oracle.commutant([W, X, Y])
    dets = [frac_det([W, X, Y, R]) for R in res["commutant"]]
    if not any(dets):
        assert not res["found"] and res["R"] is None
        return
    k = next(i for i, det in enumerate(dets) if det)
    assert res["R"] == res["commutant"][k] and res["det"] == dets[k]
    assert type(res["det"]) is Fraction
    assert all(type(c) is Fraction for c in res["Y"] + res["R"])


# a value in Q(sqrt2, sqrt3) as its coefficients on 1, sqrt2, sqrt3, sqrt6
surd = st.lists(fraction, min_size=4, max_size=4)
ROOTS = ((), ("sqrt2",), ("sqrt3",), ("sqrt2", "sqrt3"))


def surd_expr(qs):
    return ex.normalize(ex.add(*(ex.mul(ex.rat(q), *map(ex.var, roots))
                                 for q, roots in zip(qs, ROOTS))))


# sqrt2 and sqrt3 stay symbols through sympy's determinant over Q[a, b]
A, B = sympy.symbols("a b")


def surd_sympy(qs):
    return sum(sympy.Rational(q.numerator, q.denominator) * m
               for q, m in zip(qs, (1, A, B, A * B)))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_minor_over_sqrt2_sqrt3_matches_sympy(n, data):
    qs = data.draw(matrix(n, n, surd))
    if n >= 3 and data.draw(st.booleans()):   # a dependent row
        qs[-1] = [[2 * x - y for x, y in zip(a, b)]
                  for a, b in zip(qs[0], qs[1])]
    every = tuple(range(n))
    det = minor([[surd_expr(c) for c in row] for row in qs], every, every,
                {})
    dm = DomainMatrix.from_Matrix(
        sympy.Matrix([[surd_sympy(c) for c in row] for row in qs]))
    want = dm.domain.to_sympy(dm.det()).subs(
        {A: sympy.sqrt(2), B: sympy.sqrt(3)})
    assert surd_terms(det) == surd_coefficients(want, (2, 3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_cramer_numerators_over_sqrt2_sqrt3_satisfy_the_system(n, data):
    # M u = det(M) rhs for u_k = det(M with column k replaced by rhs),
    # the numerators that lattice ranks are taken of; rhs is e_z at n = 4
    m = [[surd_expr(c) for c in row] for row in data.draw(matrix(n, n, surd))]
    rhs = ([ex.rat(int(i == 2)) for i in range(4)] if n == 4
           else [surd_expr(c) for c in data.draw(
               st.lists(surd, min_size=n, max_size=n))])
    every = tuple(range(n))
    det = minor(m, every, every, {})
    u = [minor([row[:k] + [r] + row[k + 1:] for row, r in zip(m, rhs)],
               every, every, {}) for k in range(n)]
    for row, r in zip(m, rhs):
        residual = ex.add(*(ex.mul(x, y) for x, y in zip(row, u)),
                          ex.neg(ex.mul(det, r)))
        assert surd_terms(ex.normalize(residual)) == {}
    if n == 4:   # torus_family's numerators: the (z, k) minors, unsigned
        for k in range(4):
            cofactor = minor(m, (0, 1, 3), every[:k] + every[k + 1:], {})
            assert surd_terms(ex.normalize(ex.add(
                u[k], ex.mul(ex.rat((-1) ** (k + 1)), cofactor)))) == {}
