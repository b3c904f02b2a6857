import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from engelkit import expr as ex
from engelkit.frames import zero
from engelkit.manifest import load_manifest, parse_manifest
from engelkit.report import run_manifest
from engelkit.sampling import (SamplingPolicy, halton_column, is_zero_expr,
                               nonvanishing)


ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("text, want", [
    ("(-x - 1)/(x + 1)", "-1"),
    ("(2*x)/x", "2"),
    ("(x + 1)/(x + 1)", "1"),
    ("(3*x^2 + 3)/(2*x^2 + 2)", "3/2"),
    ("sin(t)/(2*sin(t))", "1/2"),
    ("(-3*x - 3)/(x + 1) + 3", "0"),
    # a matching first term alone is not proportionality
    ("(x + 1)/(x + 2)", "(x + 1)/(x + 2)"),
    ("(x*y + y)/(2*x + 2)", "(x*y + y)/(2*x + 2)"),
])
def test_a_quotient_of_proportional_terms_is_their_ratio(text, want):
    assert ex.to_str(P(text)) == want


def test_div_by_rational_becomes_coefficient():
    assert P("x/2") == ("mul", (("rat", Fraction(1, 2)), ("var", "x")))
    assert P("x/(2*2)") == ("mul", (("rat", Fraction(1, 4)), ("var", "x")))


def test_negative_power_becomes_quotient():
    e = P("x^-2")
    assert e == ("div", ("rat", Fraction(1)), ("pow", ("var", "x"), 2))


def test_negative_first_power_is_the_reciprocal():
    assert P("x^-1") == P("1/x") == ("div", ex.ONE, ("var", "x"))
    assert ex.to_str(P("x^-1")) == "1/x"


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


@pytest.mark.parametrize("text, want", [
    ("sin(t)^4 + 2*sin(t)^2*cos(t)^2 + cos(t)^4 - 1", "0"),
    ("sin(t)^2 + cos(t)^2 + sin(2*t)^2 + cos(2*t)^2", "2"),
    ("x*cos(t)^2 + x*sin(t)^2 + y", "x + y")])
def test_cleanup_applies_sin_squared_plus_cos_squared(text, want):
    assert ex.cleanup(P(text)) == P(want)


def test_a_quotient_divides_in_sine_normal_form():
    # the numerator is (cos(t)^2 + 1)*x plus a multiple of the identity
    e = P("(x*cos(t)^2 + x + y*(sin(t)^2 + cos(t)^2 - 1))/(cos(t)^2 + 1) - x")
    assert ex.cleanup(e) == ex.ZERO
    coords = [("t", 0, 1), ("x", 0, 1), ("y", 0, 1)]
    assert zero([e], coords, SamplingPolicy()).describe() == "zero=exact"


def test_halton_starts_at_corner():
    assert halton_column(0, 4, 2) == [0.0, 0.5, 0.25, 0.75]
    assert halton_column(2, 1, 3) == [pytest.approx(2 / 3)]


def test_policy_deterministic():
    coords = [("x", 0, 1), ("y", -1, 1)]
    a = SamplingPolicy(seed=3, n_samples=16).points(coords)
    b = SamplingPolicy(seed=3, n_samples=16).points(coords)
    assert a == b
    c = SamplingPolicy(seed=4, n_samples=16).points(coords)
    assert a != c


def test_is_zero_verdicts():
    coords = [("x", 0, 1)]
    pol = SamplingPolicy()
    assert is_zero_expr(P("x - x"), coords, pol).kind == "exact"
    assert is_zero_expr(P("sin(x)^2 + cos(x)^2 - 1"), coords, pol).kind == "sampled"
    v = is_zero_expr(P("x - 2"), coords, pol)
    assert v.kind == "nonzero" and "x=" in v.describe()


def test_nonvanishing_handles_singular_samples():
    coords = [("x", 0, 1)]
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


def exprs(max_depth=4, exponents=st.integers(1, 3), quotients=False,
          leaf=None, max_leaves=12):
    """Raw trees over leaf (default leaves()); with quotients, also div,
    exp and ln nodes.

    A quotient tree may divide by an exact zero, so a test drawing one
    catches EvalError.
    """
    def nodes(sub):
        out = [st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
               st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
               sub.map(ex.neg),
               sub.map(ex.sin),
               sub.map(ex.cos),
               st.tuples(sub, exponents).map(lambda bn: ex.pow_(*bn))]
        if quotients:
            out += [st.tuples(sub, sub).map(lambda ab: ex.div(*ab)),
                    sub.map(lambda a: ("exp", a)),
                    sub.map(lambda a: ("ln", a))]
        return st.one_of(*out)

    return st.recursive(leaves() if leaf is None else leaf, nodes,
                        max_leaves=max_leaves)


ENV = {"t": 0.37, "x": -1.21, "y": 0.64}


def node_tags(e):
    return {e[0]}.union(*map(node_tags, ex.children(e)))


@given(exprs(quotients=True))
@settings(max_examples=100, deadline=None)
def test_no_node_is_tagged_neg(e):
    # a sign is a product with -1, so `neg` builds no node of its own
    built = [e, ex.differentiate(e, "x"),
             ex.substitute(e, {"x": ex.neg(ex.var("y"))})]
    try:
        n = ex.normalize(e)
    except ex.EvalError:
        n = ex.ZERO
    built += [ex.parse(ex.to_str(n), ("t", "x", "y")), ex.cleanup(n),
              ex.parse("-x - (y - -t)", ("t", "x", "y"))]
    assert not any("neg" in node_tags(b) for b in built)


@given(exprs(quotients=True))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(e):
    try:
        n = ex.normalize(e)
    except ex.EvalError:   # a quotient by an exact zero
        return
    # n is interned now, so normalize(n) would return it unexamined
    ex.clear_tables()
    assert ex.normalize(n) == n


def normal_and_clean(e):
    """(normalize(e), cleanup(e)), or the name of the error either raises."""
    try:
        return ex.normalize(e), ex.cleanup(e)
    except ex.EvalError as err:
        return type(err).__name__


@given(st.lists(exprs(quotients=True), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_warm_tables_agree_with_cleared_tables(es):
    # warm: each tree after the ones before it, then all of them again
    warm = [normal_and_clean(e) for e in es + es]
    cold = []
    for e in es:
        ex.clear_tables()
        cold.append(normal_and_clean(e))
    assert warm == cold + cold


@given(st.lists(exprs(quotients=True), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_tables_dropped_mid_computation_change_no_result(es):
    cold = []
    for e in es:
        ex.clear_tables()
        cold.append(normal_and_clean(e))
    limit = ex.TABLE_LIMIT
    ex.TABLE_LIMIT = 3   # so the tables are dropped inside most calls
    tiny = []
    try:
        for e in es + es:
            tiny.append(normal_and_clean(e))
            assert keys_name_interned_nodes()
    finally:
        ex.TABLE_LIMIT = limit
    assert tiny == cold + cold


def keys_name_interned_nodes():
    """Every identity in a table key is that of a node the tables hold.

    Otherwise the node could be freed and its identity reused by another.
    """
    named = list(ex._CLEAN) + [i for i, _ in ex._DIFF]
    for key in ex._NODES:
        if key[0] in ("add", "mul", "div"):
            named += key[1:]
        elif key[0] in ex.FUNCS or key[0] == "pow":
            named.append(key[1])
    return all(i in ex._CANON for i in named)


def derivatives(es, derive, cold=False):
    """derive(n, v) for each interned n = normalize(e) and v in t, x, y, or
    the name of the error raised; cold clears the tables before each e."""
    out = []
    for e in es:
        if cold:
            ex.clear_tables()
        for v in "txy":
            try:
                out.append(derive(ex.normalize(e), v))
            except ex.EvalError as err:
                out.append(type(err).__name__)
    return out


@given(st.lists(exprs(quotients=True), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_derivative_is_the_normalized_differentiate(es):
    want = derivatives(
        es, lambda n, v: ex.normalize(ex.differentiate(n, v)), cold=True)
    limit = ex.TABLE_LIMIT
    ex.TABLE_LIMIT = 3   # so the tables, _DIFF too, are dropped in most calls
    try:
        tiny = derivatives(es + es, ex.derivative)
        assert keys_name_interned_nodes()
    finally:
        ex.TABLE_LIMIT = limit
    ex.clear_tables()
    assert tiny == want + want
    assert derivatives(es + es, ex.derivative) == want + want


def test_derivative_is_remembered_until_the_tables_are_dropped():
    e = P("x*sin(t)^2 + t/x")
    d = ex.derivative(e, "t")
    assert ex.derivative(e, "t") is d
    assert ex._DIFF
    ex.clear_tables()
    assert not ex._DIFF
    assert ex.derivative(e, "t") == d


def test_normalize_returns_an_interned_node_itself():
    n = P("x*sin(y) + 2/x")
    assert ex.normalize(n) is n
    assert ex.normalize(ex.add(n, ex.ZERO)) is n


def test_exact_division_by_zero_raises_on_every_call():
    for e in (ex.div(ex.var("x"), ex.rat(0)), ex.pow_(ex.rat(0), -2)):
        for _ in range(2):
            with pytest.raises(ex.EvalError):
                ex.normalize(e)


def test_float_exponent_fails_after_the_integer_power_is_interned():
    x = ex.var("x")
    ex.normalize(ex.pow_(x, 2))
    with pytest.raises(AssertionError, match="integers"):
        ex.normalize(ex.pow_(x, 2.0))


def test_int_and_fraction_rationals_are_one_node():
    assert ex.normalize(("rat", 1)) is ex.normalize(("rat", Fraction(1)))
    assert ex.normalize(("rat", 1)) == ex.ONE
    ex.clear_tables()
    two = ex.normalize(("rat", Fraction(2)))
    assert two is ex.normalize(("rat", 2))
    assert type(two[1]) is int


# Each division of two coefficients must stay exact: on two ints, `/` and
# a negative `**` give a float.  The tables are dropped first, so that no
# equal node interned earlier can stand in for the one computed.

def rationals_in(e):
    own = [e[1]] if e[0] == "rat" else []
    return own + [q for c in ex.children(e) for q in rationals_in(c)]


def test_dividing_by_an_integer_coefficient_is_exact():
    ex.clear_tables()
    n = ex.normalize(ex.div(ex.var("x"), ex.rat(2)))
    assert n == ("mul", (("rat", Fraction(1, 2)), ("var", "x")))
    assert [type(q) for q in rationals_in(n)] == [Fraction]


def test_a_negative_power_of_an_integer_is_exact():
    ex.clear_tables()
    n = ex.normalize(ex.pow_(ex.rat(2), -2))
    assert n == ("rat", Fraction(1, 4)) and type(n[1]) is Fraction


def test_a_polynomial_quotient_by_an_integer_lead_is_exact():
    ex.clear_tables()
    q = ex.cleanup(P("(x^2 - 1)/(2*x + 2)"))
    assert q == P("x/2 - 1/2")
    assert [type(c) for c in rationals_in(q)] == [Fraction, Fraction]


def raw_rationals():
    """rat leaves as ints, Fractions and integral Fractions, unconverted."""
    return st.one_of(
        st.integers(-4, 4),
        st.integers(-4, 4).map(Fraction),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ).map(lambda q: ("rat", q))


def is_canonical_rational(q):
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


@given(exprs(exponents=st.integers(-3, 3), quotients=True,
             leaf=st.one_of(raw_rationals(), names.map(ex.var))))
@settings(max_examples=200, deadline=None)
def test_an_integral_coefficient_is_an_int(e):
    try:
        n, c = ex.normalize(e), ex.cleanup(e)
    except ex.EvalError:   # a quotient or negative power of an exact zero
        return
    assert all(map(is_canonical_rational, rationals_in(n) + rationals_in(c)))


def test_corpus_coefficients_are_ints_or_proper_fractions():
    ex.clear_tables()
    run_manifest(load_manifest(str(ROOT / "corpus" / "t2_bundle.ek")),
                 SamplingPolicy(seed=0, n_samples=64))
    qs = [q for node in ex._VALUES for q in rationals_in(node)]
    assert {type(q) for q in qs} == {int, Fraction}
    assert all(map(is_canonical_rational, qs))


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


ANGLES = (P("t"), P("2*t"), P("x"))
TRIG_ATOMS = [f(u) for u in ANGLES for f in (ex.sin, ex.cos)]
PLAIN_ATOMS = [ex.var("x"), ex.var("y"), ex.var("t")]
POLY_ATOMS = PLAIN_ATOMS + TRIG_ATOMS


def monomials(atoms=POLY_ATOMS):
    powers = st.tuples(st.sampled_from(atoms), st.integers(1, 4))
    return st.tuples(st.integers(-3, 3), st.lists(powers, max_size=3)).map(
        lambda cf: ex.mul(ex.rat(cf[0]), *(ex.pow_(b, n) for b, n in cf[1])))


def polynomials(atoms=POLY_ATOMS):
    return st.lists(monomials(atoms), min_size=1, max_size=3).map(
        lambda ms: ex.add(*ms))


@given(st.lists(st.tuples(st.sampled_from(ANGLES), polynomials()),
                min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_cleanup_of_a_pythagorean_ideal_member_is_zero(terms):
    """sum_u P_u * (sin(u)^2 + cos(u)^2 - 1) cleans to ZERO."""
    member = ex.add(*(ex.mul(p, ex.add(ex.pow_(ex.sin(u), 2),
                                       ex.pow_(ex.cos(u), 2), ex.rat(-1)))
                      for u, p in terms))
    assert ex.cleanup(member) == ex.ZERO


@given(polynomials(), polynomials())
@example(P("3*cos(x)^3*sin(t)"), P("y^3*sin(t) - cos(x)^2"))
@example(P("3*sin(t)^2"), P("-x - 3*x*cos(t)^2"))
@settings(max_examples=150, deadline=None)
def test_a_trig_product_divided_by_a_factor_cleans_to_the_other(a, b):
    """n/d divides whether or not the sine normal forms of n and d do."""
    if not ex.is_zero(ex.cleanup(b)):
        assert ex.cleanup(ex.div(ex.mul(a, b), b)) == ex.cleanup(a)


@given(exprs(quotients=True))
@example(P("(x^2 - 1)/(x - 1)"))
@settings(max_examples=150, deadline=None)
def test_cleanup_returns_an_interned_node(e):
    try:
        c = ex.cleanup(e)
    except ex.EvalError:   # a quotient by an exact zero
        return
    assert c is ex.normalize(c)


@given(exprs(exponents=st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_to_poly_round_trips_through_monomials(e):
    e = ex.normalize(e)
    poly = ex.to_poly(e)
    for mono, q in poly.items():
        assert q != 0 and all(n >= 1 for _, n in mono)
        assert [b for b, _ in mono] == sorted(b for b, _ in mono)
    terms = [ex._monomial(q, mono) for mono, q in poly.items()]
    assert ex.normalize(ex.add(*terms)) is e
    assert [ex.normalize(t) for t in terms] == \
        ([] if ex.is_zero(e) else list(ex._terms(e)))


def test_a_perturbed_lorentz_pair_derives_a_short_x():
    """With beta's second component plus 1/7, X and v cancel to short
    forms, not quotients whose denominators are cubics in cos(t)."""
    text = (ROOT / "tests" / "manifests" / "unhinted_lorentz_k1.ek"
            ).read_text(encoding="utf-8")
    text = text.replace("comps = -sin(t); cos(t); 0; 0",
                        "comps = -sin(t); (cos(t)) + 1/7; 0; 0")
    mf = parse_manifest(text)
    mf.tasks = mf.tasks[:1]
    report = run_manifest(mf, SamplingPolicy(seed=0, n_samples=16))
    derived = {name: text for kind, name, text in report.results[0].lines
               if kind == "derived"}
    assert derived["X"] == "0; 0; 0; -1/7*cos(t) - 1"
    assert derived["v"] == "1"


def to_sympy(e):
    """A raw tree as a sympy expression, for an independent expansion."""
    tag = e[0]
    if tag == "rat":
        return sympy.Rational(e[1].numerator, e[1].denominator)
    if tag == "var":
        return sympy.Symbol(e[1])
    if tag in ("sin", "cos"):
        return getattr(sympy, tag)(to_sympy(e[1]))
    if tag == "pow":
        return to_sympy(e[1]) ** e[2]
    kids = [to_sympy(c) for c in e[1]]
    return sympy.Add(*kids) if tag == "add" else sympy.Mul(*kids)


@given(exprs(max_leaves=5), exprs(max_leaves=5), exprs(max_leaves=5))
@settings(max_examples=100, deadline=None)
def test_a_product_expands_to_one_node_in_either_grouping(a, b, c):
    left = ex.normalize(ex.mul(a, ex.mul(b, c)))
    assert ex.normalize(ex.mul(ex.mul(a, b), c)) is left
    want = to_sympy(a) * to_sympy(b) * to_sympy(c)
    assert sympy.expand(to_sympy(left) - want) == 0


@given(polynomials(PLAIN_ATOMS), polynomials(PLAIN_ATOMS))
@settings(max_examples=150, deadline=None)
def test_a_product_divided_by_a_factor_cleans_to_the_other(a, b):
    if ex.is_zero(ex.normalize(b)):
        return
    left = ex.normalize(ex.mul(a, ex.mul(b, b)))
    assert left is ex.normalize(ex.mul(ex.mul(a, b), b))
    assert sympy.expand(to_sympy(left) - to_sympy(a) * to_sympy(b) ** 2) == 0
    assert ex.cleanup(ex.div(ex.mul(a, b), b)) == ex.normalize(a)


def exponents_in(e):
    own = [e[2]] if e[0] == "pow" else []
    return own + [n for c in ex.children(e) for n in exponents_in(c)]


@given(exprs(exponents=st.integers(-3, 3)))
@settings(max_examples=200, deadline=None)
def test_normalized_powers_have_exponents_of_at_least_two(e):
    try:
        n = ex.normalize(e)
    except ex.EvalError:   # a base that folds to 0, raised to a power < 0
        return
    assert all(k >= 2 for k in exponents_in(n))


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_to_str_reparses(e):
    n = ex.normalize(e)
    assert ex.parse(ex.to_str(n), ("t", "x", "y")) == n


# --- the column interpreter against a tree walk ---------------------------

def walk(e, env):
    """A recursive evaluator, kept as a reference for the column
    interpreter: same float operations, same order, same first error.  As in
    `evaluate`, an overflow, a non-finite value and a math domain error
    are singular points."""
    try:
        value = _walk(e, env)
    except OverflowError:
        raise ex.SingularPoint("value overflows a float") from None
    except ValueError:
        raise ex.SingularPoint("value outside a function's domain") from None
    if not math.isfinite(value):
        raise ex.SingularPoint("value overflows a float")
    return value


def _walk(e, env):
    tag = e[0]
    if tag == "rat":
        return float(e[1])
    if tag == "const":
        if e[1] == "pi":
            return math.pi
        if e[1] in env:
            return float(env[e[1]])
        raise ex.EvalError(f"unbound constant '{e[1]}'")
    if tag == "var":
        if e[1] in env:
            return float(env[e[1]])
        raise ex.EvalError(f"unbound variable '{e[1]}'")
    if tag == "add":
        return sum(_walk(t, env) for t in e[1])
    if tag == "mul":
        out = 1.0
        for f in e[1]:
            out *= _walk(f, env)
        return out
    if tag == "pow":
        b = _walk(e[1], env)
        if e[2] < 0 and abs(b) < ex.SINGULAR_EPS:
            raise ex.SingularPoint("negative power of a vanishing base")
        return b ** e[2]
    if tag == "div":
        d = _walk(e[2], env)
        if abs(d) < ex.SINGULAR_EPS:
            raise ex.SingularPoint("vanishing denominator")
        return _walk(e[1], env) / d
    if tag == "sin":
        return math.sin(_walk(e[1], env))
    if tag == "cos":
        return math.cos(_walk(e[1], env))
    if tag == "exp":
        return math.exp(_walk(e[1], env))
    if tag == "ln":
        a = _walk(e[1], env)
        if a < ex.SINGULAR_EPS:
            raise ex.SingularPoint("log of a non-positive value")
        return math.log(a)
    raise ex.ExprError(f"cannot evaluate {tag!r}")


def outcome(evaluate, e, env):
    """The value, or the class and text of the error raised."""
    try:
        value = evaluate(e, env)
    except ex.ExprError as err:
        return (type(err).__name__, str(err))
    return value.hex() if isinstance(value, float) else value


ENVS = (ENV, {"t": 0.0, "x": 0.0, "y": 1.0}, {"t": 2.5, "x": 3.0, "y": -4.0},
        {"x": 0.5})   # t and y unbound


def shared(trees):
    """Trees whose subtrees recur by identity, in both div operands."""
    return st.tuples(trees, trees).map(
        lambda ab: ex.add(ab[0], ex.div(ex.mul(ab[0], ab[1]),
                                        ex.add(ab[1], ex.neg(ab[0])))))


def agree(e):
    """The interpreter and the walk agree on e and on its normal form
    (interned), at every point."""
    trees = [e]
    try:
        trees.append(ex.normalize(e))
    except ex.EvalError:   # an exact division by zero
        pass
    for tree in trees:
        for env in ENVS:
            assert outcome(ex.evaluate, tree, env) == outcome(walk, tree, env)


@given(st.one_of(exprs(quotients=True), shared(exprs(quotients=True))))
@settings(max_examples=120, deadline=None)
def test_interpreted_evaluate_equals_the_tree_walk(e):
    agree(e)


@given(st.lists(exprs(quotients=True), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_interpreted_evaluate_survives_dropped_tables(es):
    limit = ex.TABLE_LIMIT
    ex.TABLE_LIMIT = 3   # so the tables are dropped in most calls
    try:
        for e in es + es:
            agree(e)
    finally:
        ex.TABLE_LIMIT = limit


# Columns for the column evaluator: regular points and points where
# denominators, bases and logs vanish or exp overflows.  A column set that
# lacks a name leaves it unbound at every point.
COLUMNS = {"t": (0.37, 0.0, 2.5, 0.25, 0.5, -0.5, 700.0, 1.0),
           "x": (-1.21, 0.0, 3.0, 0.5, 2.0, 1e-15, -700.0, 1.0),
           "y": (0.64, 1.0, -4.0, -1.0, 0.0, 2 / 3, 0.5, 3.0)}
N_POINTS = 8


def column_point(columns, i):
    """Point i of a column set as the walk reads it."""
    return {name: col[i] for name, col in columns.items()}


def column_outcomes(e, columns, start, stop):
    """`outcome` at each point start..stop-1, from one column evaluation."""
    values, errors = ex.evaluate_columns(e, columns, start, stop)
    assert len(values) == stop - start
    assert set(errors) <= set(range(start, stop))
    return [(type(errors[i]).__name__, str(errors[i])) if i in errors
            else values[i - start].hex() for i in range(start, stop)]


def agree_by_columns(e, start, stop):
    """One column evaluation of e, and of its normal form, equals the walk
    at every point, over all points and over start..stop-1; also with the
    column of t, or of y, left out."""
    trees = [e]
    try:
        trees.append(ex.normalize(e))
    except ex.EvalError:   # an exact division by zero
        pass
    sets = [COLUMNS] + [{n: c for n, c in COLUMNS.items() if n != unbound}
                        for unbound in "ty"]
    for tree in trees:
        for columns in sets:
            want = [outcome(walk, tree, column_point(columns, i))
                    for i in range(N_POINTS)]
            assert column_outcomes(tree, columns, 0, N_POINTS) == want
            assert column_outcomes(tree, columns, start, stop) \
                == want[start:stop]


@given(st.one_of(exprs(quotients=True), shared(exprs(quotients=True))),
       st.integers(0, N_POINTS), st.integers(0, N_POINTS))
@settings(max_examples=150, deadline=None)
def test_column_evaluation_equals_the_walk_at_every_point(e, a, b):
    agree_by_columns(e, min(a, b), max(a, b))


@pytest.mark.parametrize("text", [
    "exp(exp(exp(10*x)))", "exp(x)^2000", "sin(exp(t)*exp(t/2))",
    "exp(t)*exp(t/2) - 2*exp(t/2)*exp(t)", "ln(x) + 1/t^2", "3*x^400 / z",
    "1/(x - 1) + ln(y)"])
def test_column_evaluation_keeps_every_error_text(text):
    agree_by_columns(P(text), 2, 7)


X, T = ex.var("x"), ex.var("t")


@pytest.mark.parametrize("e, error", [
    (P("1/(t - 1/2)"), "vanishing denominator"),
    (ex.pow_(ex.add(T, ex.rat(Fraction(-1, 2))), -2),
     "negative power of a vanishing base"),
    (P("ln(x - 1)"), "log of a non-positive value"),
    (P("exp(exp(exp(10*x)))"), "value overflows a float"),
    (P("exp(x)^2000"), "value overflows a float"),
    (ex.rat(Fraction(10**400, 3)), "value overflows a float"),
    (P("3*x^400 / z"), "unbound variable 'z'"),
    (ex.mul(X, ("const", "c")), "unbound constant 'c'")])
def test_evaluation_errors_keep_their_text(e, error):
    env = {"x": 1.0, "t": 0.5}
    with pytest.raises(ex.ExprError, match=error) as err:
        ex.evaluate(e, env)
    want = ex.EvalError if "unbound" in error else ex.SingularPoint
    assert type(err.value) is want


def test_a_bound_constant_is_read_from_the_point():
    assert ex.evaluate(("const", "c"), {"c": 2}) == 2.0
    assert ex.evaluate(ex.PI, {"pi": 3}) == math.pi


def test_an_unknown_node_raises_where_the_walk_reaches_it():
    e = ex.add(ex.div(ex.ONE, ex.var("x")), ("bogus", ex.ONE))
    for env in ({"x": 0.0}, {"x": 1.0}):
        assert outcome(ex.evaluate, e, env) == outcome(walk, e, env)


@pytest.mark.parametrize("n", [3000, 20000])
def test_long_sums_evaluate(n):
    # `0 + v1 + v2 + ...` as one Python expression cannot even be compiled
    e = ex.add(*[ex.mul(ex.rat(Fraction(k, 7)), X) for k in range(n)])
    env = {"x": 0.3}
    assert ex.evaluate(e, env) == walk(e, env)


def test_long_products_evaluate():
    e = ex.mul(*[ex.add(ex.ONE, ex.mul(ex.rat(Fraction(1, k)), ex.var("x")))
                 for k in range(1, 3001)])
    assert ex.evaluate(e, {"x": 1e-4}) == walk(e, {"x": 1e-4})


def test_a_max_depth_chain_evaluates():
    e = ex.var("x")
    for k in range(ex.MAX_DEPTH - 1):
        e = (ex.sin, ex.neg, lambda a: ex.add(a, ex.ONE))[k % 3](e)
    agree(e)


def test_each_evaluation_is_one_pass(passes):
    raw = ex.add(ex.sin(ex.var("x")), ex.div(ex.var("x"), ex.var("t")))
    e = ex.normalize(raw)
    for env in (ENV, ENVS[2], {"x": 0.5, "t": 1.0}):
        ex.evaluate(e, env)
        ex.evaluate(raw, env)
    assert [p for p in passes if p[0] is e] == [(e, 0, 1)] * 3
    assert [p for p in passes if p[0] is raw] == [(raw, 0, 1)] * 3
    ex.clear_tables()
    ex.evaluate(e, ENV)
    assert passes[6:] == [(e, 0, 1)]


def test_failing_points_cost_log_n_passes_each(passes):
    # 1/x over 1024 points, three of them singular: halving a failed block
    # reaches each failing point in at most 2 log2(1024) further passes
    xs = [(i + 1) / 1024 for i in range(1024)]
    singular = (5, 517, 518)
    for i in singular:
        xs[i] = 0.0
    e = ex.div(ex.ONE, X)
    values, errors = ex.evaluate_columns(e, {"x": xs}, 0, 1024)
    assert len(passes) <= 1 + 2 * 10 * len(singular)
    assert sorted(errors) == list(singular)
    assert {str(err) for err in errors.values()} == {"vanishing denominator"}
    assert all(type(err) is ex.SingularPoint for err in errors.values())
    assert [v.hex() for v in values] == [
        0.0.hex() if i in singular else (1.0 / x).hex()
        for i, x in enumerate(xs)]
