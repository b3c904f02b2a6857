"""The expression language: what parses, to which canonical tree, and what
is rejected with `ParseError`."""

import math
from fractions import Fraction

import pytest

from engelkit import expr as ex

VARIABLES = ("a", "b", "c", "t", "x", "y")
PARAMS = {"k": Fraction(-3, 2)}


def R(num, den=1):
    return ("rat", Fraction(num, den))


def X(name):
    return ("var", name)


CANONICAL = [
    ("x", X("x")),
    ("-x^2", ("mul", (R(-1), ("pow", X("x"), 2)))),
    ("-2^2", R(-4)),
    ("2^-2", R(1, 4)),
    ("a/b/c", ("div", X("a"), ("mul", (X("b"), X("c"))))),
    ("a-b-c", ("add", (X("a"), ("mul", (R(-1), X("b"))),
                       ("mul", (R(-1), X("c")))))),
    ("+x", X("x")),
    ("--x", X("x")),
    ("x - -y", ("add", (X("x"), X("y")))),
    (".5", R(1, 2)),
    ("5.", R(5)),
    ("0.25*x", ("mul", (R(1, 4), X("x")))),
    ("3/2", R(3, 2)),
    ("-4/8", R(-1, 2)),
    ("x**2", ("pow", X("x"), 2)),
    ("x^0", R(1)),
    ("x**-2", ("div", R(1), ("pow", X("x"), 2))),
    ("sin(x)^2", ("pow", ("sin", X("x")), 2)),
    ("-sin(x)^2", ("mul", (R(-1), ("pow", ("sin", X("x")), 2)))),
    ("2*pi*t", ("mul", (R(2), ex.PI, X("t")))),
    ("pi", ex.PI),
    ("pi^2", ("pow", ex.PI, 2)),
    ("k*x", ("mul", (R(-3, 2), X("x")))),
    ("k^2", R(9, 4)),
    ("1/k", R(-2, 3)),
    ("(x+y)^2", ("add", (("mul", (R(2), X("x"), X("y"))),
                         ("pow", X("x"), 2), ("pow", X("y"), 2)))),
    ("(a+b)*(a-b)", ("add", (("pow", X("a"), 2),
                             ("mul", (R(-1), ("pow", X("b"), 2)))))),
    ("x*(y/a)", ("div", ("mul", (X("x"), X("y"))), X("a"))),
    ("x/(y+1)", ("div", X("x"), ("add", (X("y"), R(1))))),
    ("(x + 1)/(x - 1)", ("div", ("add", (X("x"), R(1))),
                         ("add", (X("x"), R(-1))))),
    ("1/(2*pi)", ("div", R(1), ("mul", (R(2), ex.PI)))),
    ("x*y - y*x", R(0)),
    ("exp(x)/ln(y)", ("div", ("exp", X("x")), ("ln", X("y")))),
    ("cos(2*pi*t)^3", ("pow", ("cos", ("mul", (R(2), ex.PI, X("t")))), 3)),
    ("sin(-x)", ("sin", ("mul", (R(-1), X("x"))))),
    ("2*-x", ("mul", (R(-2), X("x")))),
    ("a/b*c", ("div", ("mul", (X("a"), X("c"))), X("b"))),
    ("  x  +  y  ", ("add", (X("x"), X("y")))),
    ("x^2*y", ("mul", (("pow", X("x"), 2), X("y")))),
    ("(((x)))", X("x")),
]

REJECTED = ["x +", "bogus+1", "sin x", "x^y", "x^2^3", "1e3", "1_000", "2x",
            "x.y", "sin(x, y)", "x; y", "", "x^2.0", "x^+2", "x^--2", "0x10",
            "1j", "x == y", "abs(x)", "sin", "sin(x)[0]", "x if y else a",
            "(x", "x)", "'x'", "[x]", "lambda: x", "True", "sin(x=1)", "x^^2",
            "1.5.2"]


@pytest.mark.parametrize("text, tree", CANONICAL)
def test_canonical_tree(text, tree):
    assert ex.parse(text, VARIABLES, PARAMS) == tree


@pytest.mark.parametrize("text", REJECTED)
def test_rejected(text):
    with pytest.raises(ex.ParseError):
        ex.parse(text, VARIABLES, PARAMS)


def test_exponent_in_parentheses_and_trailing_argument_comma():
    assert ex.parse("x^(2)", VARIABLES) == ex.parse("x^2", VARIABLES)
    assert ex.parse("x^-(2)", VARIABLES) == ex.parse("x^-2", VARIABLES)
    assert ex.parse("sin(x,)", VARIABLES) == ex.parse("sin(x)", VARIABLES)


@pytest.mark.parametrize("text, variables", [("007", ()), ("x + 01", ("x",)),
                                             ("lambda + 1", ("lambda",))])
def test_leading_zero_integers_and_keyword_names_are_rejected(text,
                                                              variables):
    with pytest.raises(ex.ParseError):
        ex.parse(text, variables)


@pytest.mark.parametrize("depth", [400, 3000, 20000])
def test_deep_nesting_is_a_parse_error(depth):
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        ex.parse("-" * depth + "x", VARIABLES)


# expressions n deep: n - 1 signs or calls around x, or a sum of n terms,
# which reads as ((x + x) + x) + ...
NESTED = {"minus": lambda n: "-" * (n - 1) + "x",
          "sin": lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
          "sum": lambda n: "+".join(["x"] * n)}


def _iterate(f, n, x):
    for _ in range(n):
        x = f(x)
    return x


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_expression_at_the_depth_bound_survives_every_pass(shape):
    n = ex.MAX_DEPTH
    e = ex.parse(NESTED[shape](n), VARIABLES)
    value = {"minus": _iterate(lambda v: -v, n - 1, 0.5),
             "sin": _iterate(math.sin, n - 1, 0.5),
             "sum": n * 0.5}[shape]
    assert ex.evaluate(e, {"x": 0.5}) == pytest.approx(value)
    de = ex.cleanup(ex.differentiate(e, "x"))
    h = 1e-6
    slope = (ex.evaluate(e, {"x": 0.5 + h})
             - ex.evaluate(e, {"x": 0.5 - h})) / (2 * h)
    assert ex.evaluate(de, {"x": 0.5}) == pytest.approx(slope, rel=1e-4)
    assert ex.to_str(e) and ex.to_str(de)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_one_level_past_the_depth_bound_is_a_parse_error(shape):
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        ex.parse(NESTED[shape](ex.MAX_DEPTH + 1), VARIABLES)
