"""Exact arithmetic in Q adjoined square roots, and rational ranks."""

from fractions import Fraction

import pytest

from engelkit.qfield import (FieldError, Generators, QNum, cofactor_det,
                             parse_qnum, rational_rank, span_rank)


def gens23():
    return Generators((2, 3))


def num(text):
    return parse_qnum(text, gens23())


def test_generators_reject_perfect_square_factor():
    with pytest.raises(FieldError):
        Generators((4,))
    with pytest.raises(FieldError):
        Generators((12,))


def test_generators_reject_shared_factor():
    with pytest.raises(FieldError):
        Generators((2, 6))


def test_generators_reject_unit():
    with pytest.raises(FieldError):
        Generators((1, 2))


def test_monomials_of_two_generators():
    keys = gens23().monomials()
    assert keys == [frozenset(), frozenset({2}), frozenset({3}),
                    frozenset({2, 3})]


def test_square_of_root_collapses():
    r2 = num("sqrt2")
    assert (r2 * r2) == QNum.of(gens23(), 2)


def test_product_of_distinct_roots():
    assert str(num("sqrt2") * num("sqrt3")) == "sqrt6"


def test_parse_round_trip():
    x = num("1 - 2/3*sqrt2 + sqrt6")
    assert str(x) == "1-2/3*sqrt2+sqrt6"
    assert x.rational_part() == Fraction(1)
    assert not x.is_rational()


def test_parse_rejects_foreign_root():
    with pytest.raises(FieldError):
        num("sqrt5")


def test_parse_factors_composite_radicand():
    assert num("sqrt6") == num("sqrt2") * num("sqrt3")


@pytest.mark.parametrize("text, want", [
    ("2*3*sqrt2", "6*sqrt2"),
    ("(1 + sqrt2)^2", "3+2*sqrt2"),
    ("sqrt2^3 - sqrt6*sqrt3", "-sqrt2"),
    ("sqrt2/2 + 0.5", "1/2+1/2*sqrt2"),
])
def test_parse_polynomial_entries(text, want):
    assert str(num(text)) == want


@pytest.mark.parametrize("text", ["sqrtx", "1/0", "1/sqrt2", "sin(sqrt2)",
                                  "pi", "2*", "", "sqrt1"])
def test_parse_rejects_what_is_not_a_field_polynomial(text):
    with pytest.raises(FieldError):
        num(text)


def test_cofactor_det_two_by_two_gives_the_cramer_solution():
    g = gens23()
    one = QNum.of(g, 1)
    zero = QNum.of(g, 0)
    m = [[one, num("sqrt2")], [num("sqrt3"), one]]
    det = cofactor_det(m)
    assert str(det) == "1-sqrt6"
    # column k replaced by the right-hand side (1, 0)
    u = [cofactor_det([[one, m[0][1]], [zero, m[1][1]]]),
         cofactor_det([[m[0][0], one], [m[1][0], zero]])]
    assert [str(x) for x in u] == ["1", "-sqrt3"]
    assert m[0][0] * u[0] + m[0][1] * u[1] == det
    assert m[1][0] * u[0] + m[1][1] * u[1] == zero


def test_cofactor_det_of_a_singular_matrix_is_zero():
    g = gens23()
    r2 = num("sqrt2")
    assert not cofactor_det([[QNum.of(g, 1), r2], [r2, QNum.of(g, 2)]])


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(3, 2), 1]]) == 1


def test_span_rank_rational_vector():
    g = gens23()
    one = QNum.of(g, 1)
    zero = QNum.of(g, 0)
    assert span_rank([[zero, zero, one, zero]]) == 1


def test_span_rank_single_irrational_vector():
    g = gens23()
    one = QNum.of(g, 1)
    zero = QNum.of(g, 0)
    u = [num("sqrt2"), zero, one, zero]
    assert span_rank([u]) == 2


def test_span_rank_two_independent_roots():
    g = gens23()
    one = QNum.of(g, 1)
    zero = QNum.of(g, 0)
    u = [num("sqrt2"), num("sqrt3"), one, zero]
    assert span_rank([u]) == 3


def test_span_rank_ignores_field_multiples():
    g = gens23()
    one = QNum.of(g, 1)
    zero = QNum.of(g, 0)
    v = [one, num("sqrt2"), zero]
    w = [num("sqrt2"), QNum.of(g, 2), zero]  # sqrt2 * v
    assert span_rank([v]) == span_rank([v, w]) == 2
