"""The exact eliminator behind det4, rational_rank, commutant and
solve_linear, checked against the independent Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit.catalog import algebra, commutant, det4
from engelkit.qfield import (FieldError, Generators, QNum, rational_rank,
                             solve_linear)
from oracle import ExactLie, frac_det, frac_inv, frac_rank

entry = st.integers(min_value=-3, max_value=3)


def matrix(nrows, ncols):
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
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
    assert det4(columns) == frac_det(fractions(m))


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
@given(n=st.integers(1, 4), data=st.data())
def test_solve_linear_matches_oracle_inverse(n, data):
    m = data.draw(matrix(n, n))
    rhs = data.draw(st.lists(entry, min_size=n, max_size=n))
    g = Generators((2,))
    qm = [[QNum.of(g, x) for x in row] for row in m]
    qrhs = [QNum.of(g, x) for x in rhs]
    if frac_det(fractions(m)) == 0:
        with pytest.raises(FieldError, match="singular"):
            solve_linear(qm, qrhs)
        return
    inv = frac_inv(fractions(m))
    want = [sum(x * r for x, r in zip(row, rhs)) for row in inv]
    assert solve_linear(qm, qrhs) == [QNum.of(g, w) for w in want]
