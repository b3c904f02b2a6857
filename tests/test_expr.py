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


def exprs(max_depth=4, exponents=st.integers(1, 3), quotients=False):
    """Raw trees; with quotients, also div, exp and ln nodes.

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
                    sub.map(ex.exp),
                    sub.map(ex.ln)]
        return st.one_of(*out)

    return st.recursive(leaves(), nodes, max_leaves=12)


ENV = {"t": 0.37, "x": -1.21, "y": 0.64}


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
    named = list(ex._CLEAN)
    for key in ex._NODES:
        if key[0] in ("add", "mul", "div"):
            named += key[1:]
        elif key[0] in ex.FUNCS or key[0] == "pow":
            named.append(key[1])
    return all(i in ex._CANON for i in named)


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


# --- the compiled evaluator against a tree walk ---------------------------

def walk(e, env):
    """The recursive evaluator the compiled one replaced, kept as a
    reference: same float operations, same order, same first error.  As in
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
    if tag == "neg":
        return -_walk(e[1], env)
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
    """The compiled evaluator and the walk agree on e and on its normal
    form (interned, so compiled once and reused), at every point."""
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
def test_compiled_evaluate_equals_the_tree_walk(e):
    agree(e)


@given(st.lists(exprs(quotients=True), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_compiled_evaluate_survives_dropped_tables(es):
    limit = ex.TABLE_LIMIT
    ex.TABLE_LIMIT = 3   # so the tables, _EVAL too, are dropped in most calls
    try:
        for e in es + es:
            agree(e)
    finally:
        ex.TABLE_LIMIT = limit


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
    (ex.mul(X, ex.const("c")), "unbound constant 'c'")])
def test_evaluation_errors_keep_their_text(e, error):
    env = {"x": 1.0, "t": 0.5}
    with pytest.raises(ex.ExprError, match=error) as err:
        ex.evaluate(e, env)
    want = ex.EvalError if "unbound" in error else ex.SingularPoint
    assert type(err.value) is want


def test_a_bound_constant_is_read_from_the_point():
    assert ex.evaluate(ex.const("c"), {"c": 2}) == 2.0
    assert ex.evaluate(ex.PI, {"pi": 3}) == math.pi


def test_an_unknown_node_raises_where_the_walk_reaches_it():
    e = ex.add(ex.div(ex.ONE, ex.var("x")), ("bogus", ex.ONE))
    for env in ({"x": 0.0}, {"x": 1.0}):
        assert outcome(ex.evaluate, e, env) == outcome(walk, e, env)


@pytest.mark.parametrize("n", [3000, 20000])
def test_long_sums_evaluate(n):
    # `0 + v1 + v2 + ...` as one expression cannot even be compiled
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


def test_an_interned_node_is_compiled_once(monkeypatch):
    built = []
    compile_ = ex._compile

    def counted(e):
        built.append(e)
        return compile_(e)

    monkeypatch.setattr(ex, "_compile", counted)
    raw = ex.add(ex.sin(ex.var("x")), ex.div(ex.var("x"), ex.var("t")))
    e = ex.normalize(raw)
    for env in (ENV, ENVS[2], {"x": 0.5, "t": 1.0}):
        ex.evaluate(e, env)
        ex.evaluate(raw, env)
    assert built.count(e) == 1
    assert sum(1 for b in built if b is raw) == 3
    ex.clear_tables()
    ex.evaluate(e, ENV)
    assert built.count(e) == 2
