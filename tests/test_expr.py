import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engelkit import expr as ex
from engelkit.sampling import SamplingPolicy, halton, is_zero_expr, nonvanishing


def P(text, variables=("t", "x", "y", "z"), constants=None):
    return ex.parse(text, variables, constants)


def test_parse_rationals_exact():
    assert P("3/2") == ("rat", Fraction(3, 2))
    assert P("0.5") == ("rat", Fraction(1, 2))
    assert P("2 - 2") == ex.ZERO
    assert P("-4/8") == ("rat", Fraction(-1, 2))


def test_parse_pi_stays_symbolic():
    e = P("2*pi*t")
    assert e == ("mul", (("rat", Fraction(2)), ("const", "pi"), ("var", "t")))


def test_parse_params_substituted():
    e = P("k*x", constants={"k": Fraction(-1)})
    assert e == ("mul", (("rat", Fraction(-1)), ("var", "x")))
    assert P("k - 1", constants={"k": Fraction(1)}) == ex.ZERO


def test_parse_errors():
    with pytest.raises(ex.ParseError):
        P("x +")
    with pytest.raises(ex.ParseError):
        P("bogus + 1")
    with pytest.raises(ex.ParseError):
        P("sin x")
    with pytest.raises(ex.ParseError):
        P("x^y")


def test_power_notations_agree():
    assert P("x**2") == P("x^2") == ("pow", ("var", "x"), 2)


def test_like_terms_cancel():
    assert P("x*y - y*x") == ex.ZERO
    assert P("sin(t)*x + x*sin(t)") == P("2*x*sin(t)")


def test_distribution_expands():
    e = P("(x + y)*(x - y)")
    assert e == P("x^2 - y^2")


def test_quotients_pulled_out_of_products():
    e = P("x*(y/z)")
    assert e[0] == "div"
    assert e == P("(x*y)/z")


def test_div_by_rational_becomes_coefficient():
    assert P("x/2") == ("mul", (("rat", Fraction(1, 2)), ("var", "x")))
    assert P("x/(2*2)") == ("mul", (("rat", Fraction(1, 4)), ("var", "x")))


def test_negative_power_becomes_quotient():
    e = P("x^-2")
    assert e == ("div", ("rat", Fraction(1)), ("pow", ("var", "x"), 2))


def test_no_function_folding():
    # sin(0) is a valid value but normalize must not rewrite function nodes
    e = ex.normalize(ex.sin(ex.ZERO))
    assert e == ("sin", ex.ZERO)


def test_to_str_frame_component():
    e = P("-sin(2*pi*t)")
    assert ex.to_str(e) == "-sin(2*pi*t)"
    assert ex.to_str(P("cos(2*pi*t)")) == "cos(2*pi*t)"
    assert ex.to_str(P("1 - x/2")) == "-1/2*x + 1"
    assert ex.to_str(P("1/(2*pi)")) == "1/(2*pi)"


def test_to_str_round_trips():
    for text in ("x^2 - y^2", "2*pi*t", "x/(y + z)", "exp(x)*ln(y)",
                 "-3/2*x*sin(t)", "(x + 1)/(x - 1)"):
        e = P(text)
        assert ex.parse(ex.to_str(e), ("t", "x", "y", "z")) == e


def test_differentiate_basics():
    d = ex.normalize(ex.differentiate(P("sin(2*pi*t)"), "t"))
    assert d == P("2*pi*cos(2*pi*t)")
    d = ex.normalize(ex.differentiate(P("x^3"), "x"))
    assert d == P("3*x^2")
    d = ex.normalize(ex.differentiate(P("x/y"), "y"))
    assert d == ex.normalize(P("-x/y^2"))


def test_differentiate_ln_exp():
    assert ex.normalize(ex.differentiate(P("ln(x)"), "x")) == P("1/x")
    assert ex.normalize(ex.differentiate(P("exp(2*x)"), "x")) == P("2*exp(2*x)")


def test_substitute():
    e = P("s^2 + s", variables=("s",))
    f = ex.normalize(ex.substitute(e, {"s": P("x + 1")}))
    assert f == P("x^2 + 3*x + 2")


def test_evaluate_singularities():
    with pytest.raises(ex.SingularPoint):
        ex.evaluate(P("1/x"), {"x": 0.0})
    with pytest.raises(ex.SingularPoint):
        ex.evaluate(P("ln(x)"), {"x": 0.0})
    with pytest.raises(ex.EvalError):
        ex.evaluate(("var", "q"), {})


def test_evaluate_pi_bound():
    assert ex.evaluate(P("sin(2*pi*t)"), {"t": 0.25}) == pytest.approx(1.0)


def test_cleanup_pythagoras():
    e = P("x*sin(t)^2 + x*cos(t)^2")
    assert ex.cleanup(e) == ("var", "x")
    e = P("sin(t)^2 + cos(t)^2 - 1")
    assert ex.cleanup(e) == ex.ZERO


def test_cleanup_polynomial_quotient():
    e = P("(x^2 - y^2)/(x - y)")
    assert ex.cleanup(e) == P("x + y")
    # non-divisible quotients survive untouched
    e = P("(x^2 + 1)/(x - y)")
    assert ex.cleanup(e) == e


def test_cleanup_mixed():
    e = P("(x*sin(t)^2 + x*cos(t)^2)/x")
    assert ex.cleanup(e) == ex.ONE


def test_halton_starts_at_corner():
    assert halton(0, 2) == 0.0
    assert halton(1, 2) == 0.5
    assert halton(2, 3) == pytest.approx(2 / 3)


def test_policy_deterministic():
    coords = [("x", 0, 1, True), ("y", -1, 1, False)]
    a = SamplingPolicy(seed=3, n_samples=16).points(coords)
    b = SamplingPolicy(seed=3, n_samples=16).points(coords)
    assert a == b
    c = SamplingPolicy(seed=4, n_samples=16).points(coords)
    assert a != c


def test_is_zero_verdicts():
    coords = [("x", 0, 1, True)]
    pol = SamplingPolicy()
    assert is_zero_expr(P("x - x"), coords, pol).kind == "exact"
    assert is_zero_expr(P("sin(x)^2 + cos(x)^2 - 1"), coords, pol).kind == "sampled"
    v = is_zero_expr(P("x - 2"), coords, pol)
    assert v.kind == "nonzero" and "x=" in v.describe()


def test_nonvanishing_handles_singular_samples():
    coords = [("x", 0, 1, True)]
    pol = SamplingPolicy(n_samples=8)
    assert nonvanishing([P("1/x"), P("1 + x")], coords, pol).ok


# --- property tests -------------------------------------------------------

names = st.sampled_from(["t", "x", "y"])


def leaves():
    return st.one_of(
        st.integers(-4, 4).map(ex.rat),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).map(ex.rat),
        names.map(ex.var),
    )


def exprs(max_depth=4):
    return st.recursive(
        leaves(),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
            sub.map(ex.neg),
            sub.map(ex.sin),
            sub.map(ex.cos),
            st.tuples(sub, st.integers(1, 3)).map(lambda bn: ex.pow_(*bn)),
        ),
        max_leaves=12,
    )


ENV = {"t": 0.37, "x": -1.21, "y": 0.64}


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(e):
    n = ex.normalize(e)
    assert ex.normalize(n) == n


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_value(e):
    n = ex.normalize(e)
    assert ex.evaluate(n, ENV) == pytest.approx(ex.evaluate(e, ENV),
                                                rel=1e-9, abs=1e-9)


@given(exprs(), names)
@settings(max_examples=150, deadline=None)
def test_derivative_matches_finite_difference(e, v):
    d = ex.normalize(ex.differentiate(e, v))
    h = 1e-6
    hi = dict(ENV)
    lo = dict(ENV)
    hi[v] += h
    lo[v] -= h
    fd = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)
    assert ex.evaluate(d, ENV) == pytest.approx(fd, rel=1e-4, abs=1e-4)


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_cleanup_preserves_value(e):
    c = ex.cleanup(e)
    assert ex.evaluate(c, ENV) == pytest.approx(ex.evaluate(e, ENV),
                                                rel=1e-9, abs=1e-9)


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_to_str_reparses(e):
    n = ex.normalize(e)
    assert ex.parse(ex.to_str(n), ("t", "x", "y")) == n
