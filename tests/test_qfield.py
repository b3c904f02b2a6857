"""Values in Q adjoined square roots as expressions, and rational ranks."""

from fractions import Fraction

import pytest
import sympy

from engelkit import expr as ex
from engelkit.frames import minor
from engelkit.qfield import (MAX_RADICAND, FieldError, Generators,
                             parse_surd, rational_rank, span_rank,
                             surd_terms)
from oracle import surd_coefficients


def gens23():
    return Generators((2, 3))


def num(text):
    return parse_surd(text, gens23())


def terms(text):
    return surd_terms(num(text))


def sympy_terms(text):
    roots = {f"sqrt{n}": sympy.sqrt(n) for n in (2, 3, 6)}
    return surd_coefficients(
        sympy.sympify(text.replace("^", "**"), locals=roots, rational=True),
        (2, 3))


def det2(m):
    return minor(m, (0, 1), (0, 1), {})


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


def test_generators_reject_a_radicand_above_the_bound():
    # 10^9 + 1 = 7 * 11 * 13 * 19 * 52579 is square-free
    with pytest.raises(FieldError, match=f"larger than {MAX_RADICAND}"):
        Generators((MAX_RADICAND + 1,))


def test_square_of_root_collapses():
    assert terms("sqrt2 * sqrt2") == {frozenset(): 2}


def test_product_of_distinct_roots():
    assert terms("sqrt2 * sqrt3") == {frozenset({2, 3}): 1}


def test_parse_round_trip():
    assert terms("1 - 2/3*sqrt2 + sqrt6") == {
        frozenset(): 1, frozenset({2}): Fraction(-2, 3),
        frozenset({2, 3}): 1}


def test_parse_rejects_foreign_root():
    with pytest.raises(FieldError):
        num("sqrt5")


def test_parse_factors_composite_radicand():
    assert num("sqrt6") == num("sqrt2 * sqrt3")
    assert ex.to_str(num("sqrt6")) == "sqrt2*sqrt3"


@pytest.mark.parametrize("text, want", [
    ("2*3*sqrt2", "6*sqrt2"),
    ("(1 + sqrt2)^2", "3+2*sqrt2"),
    ("sqrt2^3 - sqrt6*sqrt3", "-sqrt2"),
    ("sqrt2/2 + 0.5", "1/2+1/2*sqrt2"),
    ("(sqrt2*sqrt3)/sqrt6", "1"),   # a polynomial once sqrt6 is split
])
def test_parse_polynomial_entries(text, want):
    assert terms(text) == sympy_terms(text) == sympy_terms(want)


def test_surd_terms_reduces_every_power_of_a_root():
    x = ex.var("sqrt2")
    for k in range(7):
        want = {frozenset({2} if k % 2 else ()): 2 ** (k // 2)}
        assert surd_terms(ex.normalize(ex.pow_(x, k))) == want
    assert surd_terms(num("sqrt2^2 - 2")) == {}


@pytest.mark.parametrize("text", ["sqrtx", "1/0", "1/sqrt2", "sin(sqrt2)",
                                  "pi", "2*", "", "sqrt1"])
def test_parse_rejects_what_is_not_a_field_polynomial(text):
    with pytest.raises(FieldError):
        num(text)


@pytest.mark.parametrize("text, message", [
    ("sqrtx", "unknown symbol 'sqrtx' in 'sqrtx'"),
    ("1/0", "exact division by zero"),
    ("1/sqrt2", "'1/sqrt2' is a quotient, not a polynomial"),
    ("2*pi", "pi in '2*pi' is not a square root"),
    ("sqrt1", "sqrt1 is not a surd"),
    ("sqrt10", "sqrt10 is outside the declared generators"),
    # roots are split before the check, so these name the split form
    ("1/(sqrt6 - sqrt2*sqrt3)", "exact division by zero"),
    ("sin(sqrt6)", "sin(sqrt2*sqrt3) in 'sin(sqrt6)' is not a square root"),
])
def test_parse_errors_name_the_entry(text, message):
    with pytest.raises(FieldError) as err:
        num(text)
    assert str(err.value) == message


def test_a_root_too_long_to_read_is_outside_the_generators():
    name = "sqrt" + "7" * 5000
    with pytest.raises(FieldError, match="outside the declared generators"):
        num(f"1 + {name}")


def test_minor_two_by_two_gives_the_cramer_solution():
    one, zero = ex.ONE, ex.ZERO
    m = [[one, num("sqrt2")], [num("sqrt3"), one]]
    det = det2(m)
    assert surd_terms(det) == {frozenset(): 1, frozenset({2, 3}): -1}
    # column k replaced by the right-hand side (1, 0)
    u = [det2([[one, m[0][1]], [zero, m[1][1]]]),
         det2([[m[0][0], one], [m[1][0], zero]])]
    assert [surd_terms(x) for x in u] == [{frozenset(): 1},
                                          {frozenset({3}): -1}]
    for row, r in zip(m, (det, zero)):
        residual = ex.add(ex.mul(row[0], u[0]), ex.mul(row[1], u[1]),
                          ex.neg(r))
        assert surd_terms(ex.normalize(residual)) == {}


def test_minor_of_a_singular_matrix_reduces_to_zero():
    r2 = num("sqrt2")
    det = det2([[ex.ONE, r2], [r2, ex.rat(2)]])
    assert det != ex.ZERO   # 2 - sqrt2^2 is zero only once reduced
    assert surd_terms(det) == {}


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(3, 2), 1]]) == 1


def test_span_rank_rational_vector():
    assert span_rank([[ex.ZERO, ex.ZERO, ex.ONE, ex.ZERO]]) == 1


def test_span_rank_single_irrational_vector():
    u = [num("sqrt2"), ex.ZERO, ex.ONE, ex.ZERO]
    assert span_rank([u]) == 2


def test_span_rank_two_independent_roots():
    u = [num("sqrt2"), num("sqrt3"), ex.ONE, ex.ZERO]
    assert span_rank([u]) == 3


def test_span_rank_ignores_field_multiples():
    v = [ex.ONE, num("sqrt2"), ex.ZERO]
    w = [num("sqrt2"), num("sqrt2^2"), ex.ZERO]  # sqrt2 * v, unreduced
    assert span_rank([v]) == span_rank([v, w]) == 2
