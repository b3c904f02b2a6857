"""The Verdict type, the zero/nonzero check helpers and sample points."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import halton

from engelkit import expr as ex
from engelkit import sampling
from engelkit.frames import FrameSpace, nonzero, zero
from engelkit.sampling import (MAX_RETRIES, PRIMES, SamplingPolicy, Verdict,
                               failed, halton_column, is_zero_expr,
                               is_zero_many, nonvanishing, weakest)

POLICY = SamplingPolicy(n_samples=16)


def box():
    return FrameSpace([("coord", "x", 0, 1), ("coord", "y", 0, 1)])


def test_describe_texts():
    assert Verdict("exact").describe() == "zero=exact"
    assert Verdict("sampled").describe() == "zero=sampled"
    v = Verdict("nonzero", value=0.5, point={"y": 1.0, "x": 0.25})
    assert v.describe() == "zero=no value=0.5 at x=0.25,y=1"
    v = Verdict("nonvanishing", value=2, point={"x": 0.0})
    assert v.describe() == "nonvanishing=yes min=2 at x=0"
    v = Verdict("vanishing", value=0.0, point={})
    assert v.describe() == "nonvanishing=NO min=0 at -"


def test_failed_names_in_order():
    checks = {"a": Verdict("exact"), "b": Verdict("nonzero", 1, {}),
              "c": Verdict("sampled"), "d": Verdict("vanishing", 0, {})}
    assert failed(checks) == ["b", "d"]
    assert failed({}) == []


def test_weakest_reports_sampled_and_first_failure():
    assert weakest([Verdict("exact"), Verdict("exact")]).kind == "exact"
    assert weakest([Verdict("exact"), Verdict("sampled")]).kind == "sampled"
    bad = Verdict("nonzero", 3, {"x": 0.5})
    assert weakest([Verdict("sampled"), bad,
                    Verdict("nonzero", 4, {})]) is bad


def test_zero_accepts_forms_fields_and_lists():
    sp = box()
    ranges = sp.coord_ranges
    assert zero(sp.one_form([ex.ZERO, ex.ZERO]), ranges, POLICY).kind \
        == "exact"
    assert zero(sp.field([ex.ZERO, ex.ZERO]), ranges, POLICY).kind == "exact"
    v = zero(sp.field([ex.ZERO, sp.scalar("x - 1")]), ranges, POLICY)
    assert v.kind == "nonzero" and v.point == {"x": 0.0, "y": 0.0}
    assert zero([], ranges, POLICY).kind == "exact"


def test_zero_cleans_up_first():
    ranges = box().coord_ranges
    e = box().scalar("sin(x)^2 + cos(x)^2 - 1")
    assert zero([e], ranges, POLICY).kind == "exact"


def test_nonzero_treats_empty_as_zero():
    ranges = box().coord_ranges
    v = nonzero([], ranges, POLICY)
    assert not v.ok and v.value == 0.0
    assert v.describe() == nonzero([ex.ZERO], ranges, POLICY).describe()
    assert not nonzero(box().one_form([ex.ZERO, ex.ZERO]), ranges,
                       POLICY).ok


COORDS = (("x", 0, 1), ("y", Fraction(-1), 2))


def halton_points(seed, n, coords):
    """The sample points written out from the Halton sequence."""
    return [{name: float(lo) + halton(seed * n + i, PRIMES[j])
             * (float(hi) - float(lo))
             for j, (name, lo, hi) in enumerate(coords)}
            for i in range(n)]


def point_list(policy, coords):
    """The policy's sample columns read back as one dict per sample."""
    cols = policy.points(coords)
    return [{name: col[i] for name, col in cols.items()}
            for i in range(policy.n_samples)]


def test_points_are_built_once_and_equal_a_fresh_policy():
    pol = SamplingPolicy(seed=5, n_samples=8)
    first = pol.points(COORDS)
    assert pol.points(list(COORDS)) is first
    assert first == SamplingPolicy(seed=5, n_samples=8).points(COORDS)
    assert point_list(pol, COORDS) == halton_points(5, 8, COORDS)


@pytest.mark.parametrize("seed, n, coords", [
    (6, 8, COORDS), (5, 9, COORDS), (5, 8, COORDS[:1]),
    (5, 8, (("x", 0, 2),) + COORDS[1:])])
def test_points_differ_across_seed_count_and_coords(seed, n, coords):
    pol = SamplingPolicy(seed=5, n_samples=8)
    pol.points(COORDS)
    other = SamplingPolicy(seed=seed, n_samples=n)
    assert other.points(coords) != pol.points(COORDS)
    assert point_list(other, coords) == halton_points(seed, n, coords)


MIXED = (("x", 0, 1), ("y", Fraction(-1, 3), 2),
         ("z", Fraction(1, 7), Fraction(5, 3)), ("t", -2, Fraction(1, 2)))


@pytest.mark.parametrize("seed", [0, 137])
@pytest.mark.parametrize("n", [64, 1024])
def test_column_built_points_equal_the_formula_bit_for_bit(seed, n):
    cols = SamplingPolicy(seed=seed, n_samples=n).points(MIXED)
    assert list(cols) == ["x", "y", "z", "t"]
    for j, (name, lo, hi) in enumerate(MIXED):
        assert len(cols[name]) == n
        for i, value in enumerate(cols[name]):
            want = float(lo) + halton(seed * n + i, PRIMES[j]) \
                * (float(hi) - float(lo))
            assert value.hex() == want.hex()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 7), st.integers(1, 3000))
@example(0, 1)
@example(0, 3000)
@example(0, 0)                 # an empty window, at 0 and further on
@example(7, 0)
@example(1024, 1024)           # starts on a multiple of 2**10 and of 4**5
@example(102400, 1024)         # seed 100 at 1024 samples
@example(3 ** 7, 3 ** 6)       # one whole block of 3**6 in base 3
@example(11 ** 3 * 5, 64)
@example(1020, 10)             # straddles 1024
@example(3 ** 7 - 5, 3 ** 6)   # straddles 3**7
@example(6400 + 63, 2)         # straddles the next seed's first sample
def test_halton_columns_equal_the_digit_loop_bit_for_bit(start, count):
    for base in PRIMES:
        col = halton_column(start, count, base)
        assert [v.hex() for v in col] == \
            [halton(start + i, base).hex() for i in range(count)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.integers(1, 200),
       st.lists(st.integers(0, 250), max_size=5))
@example(100, 1024, [1, 4, 16, 64, 256])   # the blocks of is_zero_many
@example(0, 8, [3, 1, 0, 9])
def test_point_prefixes_equal_the_full_columns_bit_for_bit(seed, n, stops):
    pol = SamplingPolicy(seed=seed, n_samples=n)
    full = SamplingPolicy(seed=seed, n_samples=n).points(MIXED)
    for stop in stops + [n]:
        cols = pol.points(MIXED, stop)
        k = min(stop, n)
        for j, (name, lo, hi) in enumerate(MIXED):
            got = [v.hex() for v in cols[name][:k]]
            assert len(got) == k
            assert got == [v.hex() for v in full[name][:k]]
            assert got == [(float(lo) + halton(seed * n + i, PRIMES[j])
                            * (float(hi) - float(lo))).hex()
                           for i in range(k)]
    assert pol.points(MIXED) is cols
    assert pol.points(MIXED, 1) is cols


def counted_halton_indices(monkeypatch):
    """How often `halton_column` builds each (index, base), as it runs."""
    built = Counter()

    def counted(start, count, base):
        built.update((i, base) for i in range(start, start + count))
        return halton_column(start, count, base)

    monkeypatch.setattr(sampling, "halton_column", counted)
    return built


def test_coordinate_tuples_share_their_halton_columns(monkeypatch):
    built = counted_halton_indices(monkeypatch)
    pol = SamplingPolicy(seed=3, n_samples=16)
    pol.points(MIXED[:3], 1)
    pol.points(MIXED[:3], 4)
    pol.points(MIXED[:3])
    pol.points(MIXED, 5)
    pol.points(MIXED)
    assert built == Counter({(i, base): 1 for i in range(48, 64)
                             for base in (2, 3, 5, 7)})


@pytest.mark.parametrize("check, exprs", [
    (nonvanishing, [ex.rat(2), ex.rat(Fraction(-3, 7))]),
    (is_zero_many, [ex.parse("x - 2", ("x",))]),   # fails at sample 0
    (nonvanishing, [ex.parse("2*pi"), ex.rat(-1), ex.parse("pi^2 - 9")])])
def test_a_verdict_read_at_sample_0_builds_one_index_per_base(
        monkeypatch, check, exprs):
    built = counted_halton_indices(monkeypatch)
    pol = SamplingPolicy(seed=100, n_samples=1024)
    v = check(exprs, MIXED, pol)
    assert v.kind in ("nonvanishing", "nonzero")
    assert built == Counter({(102400, base): 1 for base in (2, 3, 5, 7)})
    assert v.point == point_list(pol, MIXED)[0]


def test_a_space_without_coordinates_has_n_empty_points():
    pol = SamplingPolicy(n_samples=8)
    assert dict(pol.points(())) == {}
    assert point_list(pol, ()) == [{}] * 8
    v = nonvanishing([ex.mul(ex.rat(2), ex.PI)], (), pol)
    assert v.ok and v.point == {} and v.describe().endswith(" at -")


def test_a_verdict_point_cannot_change_later_points():
    pol = SamplingPolicy(n_samples=8)
    v = is_zero_expr(ex.parse("x - 2", ("x", "y")), COORDS, pol)
    assert v.kind == "nonzero"
    with pytest.raises(TypeError):
        v.point["x"] = 7.0
    with pytest.raises(TypeError):
        pol.points(COORDS)["y"][0] = 7.0
    with pytest.raises(TypeError):
        pol.points(COORDS)["y"] = (7.0,) * 8
    assert point_list(pol, COORDS) == halton_points(0, 8, COORDS)


def sampled_nonvanishing(exprs, coords, policy):
    """kind, value and point of nonvanishing's sampling loop, written out."""
    best = None
    for env in point_list(policy, coords):
        m = max((abs(ex.evaluate(e, env)) for e in exprs), default=0.0)
        if best is None or m < best[0]:
            best = (m, env)
    kind = "nonvanishing" if best[0] > policy.abs_tol else "vanishing"
    return kind, best[0] or 0.0, best[1]


@pytest.mark.parametrize("values, kind", [
    ([2], "nonvanishing"), ([0], "vanishing"),
    ([-3, Fraction(1, 2)], "nonvanishing"), ([], "vanishing"),
    ([Fraction(1, 10**9)], "vanishing"),
    ([Fraction(-1, 10**12), 0], "vanishing")])
def test_rational_nonvanishing_matches_the_sampling_loop(values, kind):
    pol = SamplingPolicy(seed=2, n_samples=8)   # abs_tol 1e-9
    exprs = [ex.rat(q) for q in values]
    v = nonvanishing(exprs, COORDS, pol)
    assert v.kind == kind
    assert (v.kind, v.value, v.point) \
        == sampled_nonvanishing(exprs, COORDS, pol)
    assert type(v.value) is float


@pytest.mark.parametrize("exprs", [
    [ex.rat(-10**400)], [ex.rat(Fraction(10**400, 3)), ex.ZERO],
    [ex.rat(Fraction(1, 7)), ex.parse("2*pi"), ex.rat(10**400)]])
def test_a_rational_past_the_float_range_is_nonvanishing(exprs):
    # float() of such a value raises OverflowError; its magnitude is inf
    pol = SamplingPolicy(seed=2, n_samples=8)
    v = nonvanishing(exprs, COORDS, pol)
    assert v.kind == "nonvanishing" and v.value == math.inf
    assert v.point == point_list(pol, COORDS)[0]


@pytest.mark.parametrize("texts, kind", [
    (["2*pi"], "nonvanishing"), (["-4*pi", "1/3"], "nonvanishing"),
    (["pi^2 - 9", "0"], "nonvanishing"), (["(pi - 3)^3/10^9"], "vanishing"),
    (["pi^3 + 2*pi", "-7/2"], "nonvanishing")])
def test_constant_nonvanishing_matches_the_sampling_loop(
        monkeypatch, texts, kind):
    # a polynomial in pi is evaluated once, at sample 0, and a rational
    # component is not compiled at all
    pol = SamplingPolicy(seed=2, n_samples=8)
    ex.clear_tables()   # so that no compiled function is remembered
    exprs = [ex.parse(t) for t in texts]
    compiled = []
    compile_ = ex._compile
    monkeypatch.setattr(ex, "_compile",
                        lambda e: compiled.append(e) or compile_(e))
    v = nonvanishing(exprs, COORDS, pol)
    assert compiled == [e for e in exprs if e[0] != "rat"]
    want_kind, want_value, want_point = sampled_nonvanishing(exprs, COORDS,
                                                             pol)
    assert (v.kind, v.value.hex(), v.point) \
        == (kind, want_value.hex(), want_point)
    assert want_kind == kind and v.point == point_list(pol, COORDS)[0]


def test_an_overflowing_constant_is_left_to_the_sampling_loop(monkeypatch):
    pol = SamplingPolicy(n_samples=8)
    exprs = [ex.parse("pi^700")]
    v = nonvanishing(exprs, COORDS, pol)
    assert v.kind == "vanishing" and v.value == 0.0
    monkeypatch.setattr(ex, "is_constant", lambda e: False)
    assert v.point == nonvanishing(exprs, COORDS, pol).point
    assert v.point != point_list(pol, COORDS)[0]   # a fallback point


@pytest.mark.parametrize("text, lo, hi", [
    ("ln(x)", -2, -1),                  # singular at every sample
    ("exp(exp(exp(10*x)))", 1, 2),      # overflows at every sample
    # inf - inf is nan at every sample, without an OverflowError
    ("exp(700*x)*exp(701*x) - exp(700*x)*exp(702*x)", 1, 2),
    # sin of inf is a math domain error at every sample
    ("sin(exp(700*x)*exp(701*x))", 1, 2)])
def test_no_sample_evaluated_is_not_a_zero(text, lo, hi):
    coords = (("x", lo, hi),)
    pol = SamplingPolicy(n_samples=16)
    e = ex.parse(text, ("x",))
    v = is_zero_expr(e, coords, pol)
    assert not v.ok and v.kind == "nonzero"
    assert v.value != v.value   # nan
    assert v.point == point_list(pol, coords)[0]
    assert v.describe() == f"zero=no value=nan at x={lo}"
    assert nonvanishing([e], coords, pol).kind == "vanishing"


def test_every_component_needs_an_evaluated_sample():
    coords = (("x", -2, -1),)
    pol = SamplingPolicy(n_samples=16)
    x_minus_x = ex.add(ex.var("x"), ex.neg(ex.var("x")))
    v = sampling.is_zero_many([x_minus_x, ex.parse("ln(x)", ("x",))],
                              coords, pol)
    assert v.kind == "nonzero"
    v = sampling.is_zero_many([ex.parse("sin(x)^2 + cos(x)^2 - 1", ("x",)),
                               ex.parse("ln(-x) - ln(-x)", ("x",))],
                              coords, pol)
    assert v.kind == "sampled"


def test_overflow_is_a_singular_sample_for_nonvanishing():
    # exp(exp(exp(10*x))) overflows a float from x = 0.1882 on
    e = ex.parse("exp(exp(exp(10*x)))", ("x",))
    coords = (("x", 0, Fraction(1, 4)),)
    pol = SamplingPolicy(n_samples=16)
    assert any(x > 0.1882 for x in pol.points(coords)["x"])
    v = nonvanishing([e], coords, pol)
    assert v.ok and v.point == {"x": 0.0}
    v = nonvanishing([e], (("x", 1, 2),), pol)
    assert v.kind == "vanishing" and v.value == 0.0


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"n_samples": 0},
                                    {"abs_tol": 0}])
def test_a_policy_rejects_a_negative_seed_and_empty_sampling(kwargs):
    # halton is 0.0 at a negative index, so a negative seed would collapse
    # every sample onto the corner of the box
    with pytest.raises(ValueError):
        SamplingPolicy(**kwargs)


# --- the per-point verdicts the column ones replaced ------------------------

def fallback_point(policy, coords, k):
    """Fallback point k written out from the Halton sequence."""
    index = (policy.seed + 1) * policy.n_samples + k
    return {name: float(lo) + halton(index, PRIMES[j])
            * (float(hi) - float(lo))
            for j, (name, lo, hi) in enumerate(coords)}


def ref_is_zero_many(exprs, coords, policy):
    """is_zero_many as it was, one `evaluate` per sample and component."""
    live = [e for e in map(ex.normalize, exprs) if not ex.is_zero(e)]
    if not live:
        return Verdict("exact")
    pts = point_list(policy, coords)
    unseen = set(range(len(live)))
    for env in pts:
        for i, e in enumerate(live):
            try:
                v = ex.evaluate(e, env)
            except ex.SingularPoint:
                continue
            unseen.discard(i)
            if abs(v) > policy.abs_tol:
                return Verdict("nonzero", value=v, point=env)
    if unseen:
        return Verdict("nonzero", value=float("nan"), point=pts[0])
    return Verdict("sampled")


def ref_nonvanishing(exprs, coords, policy):
    """nonvanishing as it was, one `evaluate` per sample and component."""
    normed = [ex.normalize(e) for e in exprs]
    if all(e[0] == "rat" for e in normed):
        m = max((abs(float(e[1])) for e in normed), default=0.0)
        return Verdict("nonvanishing" if m > policy.abs_tol else "vanishing",
                       value=m, point=point_list(policy, coords)[0])
    best_min = None
    worst_pt = None
    retries = 0
    queue = point_list(policy, coords)
    k = 0
    while queue:
        env = queue.pop(0)
        try:
            m = max((abs(ex.evaluate(e, env)) for e in normed),
                    default=0.0)
        except ex.SingularPoint:
            retries += 1
            if retries > MAX_RETRIES:
                return Verdict("vanishing", value=0.0, point=env)
            queue.append(fallback_point(policy, coords, k))
            k += 1
            continue
        if best_min is None or m < best_min:
            best_min = m
            worst_pt = env
    ok = best_min is not None and best_min > policy.abs_tol
    return Verdict("nonvanishing" if ok else "vanishing",
                   value=best_min or 0.0, point=worst_pt)


def verdict_outcome(check, exprs, coords, policy):
    """Kind, value bits and point of a verdict, or the error raised."""
    try:
        v = check(exprs, coords, policy)
    except ex.ExprError as err:
        return type(err).__name__, str(err)
    value = None if v.value is None else float(v.value).hex()
    point = None if v.point is None else dict(v.point)
    return v.kind, value, point


BOX = (("x", 0, 1), ("y", Fraction(-1), 2))


def same_verdicts(texts, policy, coords=BOX):
    exprs = [ex.parse(t, ("x", "y", "z")) for t in texts]
    for check, ref in ((nonvanishing, ref_nonvanishing),
                       (is_zero_many, ref_is_zero_many)):
        got = verdict_outcome(check, exprs, coords, policy)
        assert got == verdict_outcome(ref, exprs, coords, policy)
    return got


def counted_extra_points(monkeypatch):
    """The fallback points the policy builds, recorded one dict per point
    as their columns are built."""
    built = []
    fallback = SamplingPolicy.fallback

    def counted(self, coords, first, count):
        cols = fallback(self, coords, first, count)
        built.extend({name: col[i] for name, col in cols.items()}
                     for i in range(count))
        return cols

    monkeypatch.setattr(SamplingPolicy, "fallback", counted)
    return built


@pytest.mark.parametrize("seed, n, first, count", [
    (0, 8, 0, 3), (3, 16, 5, 2), (1, 64, 16, 1), (2, 8, 4, 0),
    (137, 1024, 0, MAX_RETRIES + 1)])
def test_fallback_columns_equal_the_formula_bit_for_bit(seed, n, first,
                                                        count):
    pol = SamplingPolicy(seed=seed, n_samples=n)
    cols = pol.fallback(MIXED, first, count)
    assert list(cols) == [name for name, _, _ in MIXED]
    want = [fallback_point(pol, MIXED, k) for k in range(first,
                                                         first + count)]
    for name, col in cols.items():
        assert [v.hex() for v in col] == [p[name].hex() for p in want]


def test_fallback_points_are_built_only_for_singular_samples(monkeypatch):
    rounds = []
    fallback = SamplingPolicy.fallback

    def counted(self, coords, first, count):
        rounds.append((first, count))
        return fallback(self, coords, first, count)

    monkeypatch.setattr(SamplingPolicy, "fallback", counted)
    pol = SamplingPolicy(n_samples=8)
    assert nonvanishing([ex.parse("x + 1", ("x",))], BOX, pol).ok
    assert rounds == []
    # 1/(x - 1/2) is singular at sample 1 only, and not at fallback point 0
    assert nonvanishing([ex.parse("1/(x - 1/2)", ("x",))], BOX, pol).ok
    assert rounds == [(0, 1)]


def test_more_singular_samples_than_retries_agree(monkeypatch):
    # ln(x - 9/10) is singular at 9 in 10 samples: the 17th ends the check
    built = counted_extra_points(monkeypatch)
    pol = SamplingPolicy(n_samples=64)
    v = nonvanishing([ex.parse("ln(x - 9/10)", ("x",))], BOX, pol)
    assert v.kind == "vanishing" and v.value == 0.0 and built == []
    same_verdicts(["ln(x - 9/10)"], pol)


@pytest.mark.parametrize("texts, seed, n", [
    (["ln(x - 1/2)"], 0, 8), (["ln(x - 1/2)"], 3, 16),
    (["ln(y)*x", "ln(1/2 - x)"], 0, 8), (["ln(x - 9/10)"], 1, 8),
    (["1/(x - 1/2) + ln(y)"], 3, 16)])
def test_singular_fallback_points_agree(monkeypatch, texts, seed, n):
    built = counted_extra_points(monkeypatch)
    pol = SamplingPolicy(seed=seed, n_samples=n)
    same_verdicts(texts, pol)
    exprs = [ex.parse(t, ("x", "y")) for t in texts]
    singular = 0
    for env in built:
        try:
            [ex.evaluate(e, env) for e in exprs]
        except ex.SingularPoint:
            singular += 1
    assert singular > 0   # a fallback point was singular too


@pytest.mark.parametrize("texts, kind", [
    (["sin(x)^2 + cos(x)^2 - 1", "ln(x - 2)"], "nonzero"),   # nan
    (["ln(x - 2)"], "nonzero"),
    (["(sin(y)^2 + cos(y)^2 - 1)*ln(x - 1/2)", "sin(x)^2 + cos(x)^2 - 1"],
     "sampled"),
    (["x - 2", "ln(y)"], "nonzero"),         # fails at sample 0
    (["sin(x)^2 + cos(x)^2 - 1", "x*y - 1/3"], "nonzero"),
    (["ln(x - 1/2) + z"], "nonzero"),        # singular or unbound
    (["x - 2 + z"], "nonzero")])
def test_zero_checks_agree(texts, kind):
    pol = SamplingPolicy(seed=2, n_samples=64)
    exprs = [ex.parse(t, ("x", "y", "z")) for t in texts]
    got = same_verdicts(texts, pol)
    if "z" not in "".join(texts):
        assert got[0] == kind
    if texts[0] == "x - 2":
        assert got[2] == point_list(pol, BOX)[0]
    if texts[-1] == "ln(x - 2)":
        assert got[1] == "nan"
    assert verdict_outcome(is_zero_many, exprs, BOX, pol)[0] in (kind,
                                                                 "EvalError")


def test_the_earliest_sample_wins_over_the_first_component():
    # at seed 0, x is 0, 1/2, 1/4, 3/4 at samples 0-3: the second
    # component fails at sample 2, before the first fails at sample 3
    texts = ["x*(x - 1/2)*(x - 1/4)", "x*(x - 1/2)"]
    got = same_verdicts(texts, SamplingPolicy(n_samples=64))
    assert got[:2] == ("nonzero", (0.25 * -0.25).hex())
    assert got[2]["x"] == 0.25


ATOMS = ("1/(x - {a})", "ln(y - {a})", "x - {a}", "ln({a} - x)",
         "(sin(x)^2 + cos(x)^2 - 1)*ln(x - {a})", "y^2 - {a}", "z*x")


def components():
    atom = st.tuples(st.sampled_from(ATOMS),
                     st.sampled_from(["0", "1/2", "1/3", "7/8", "2", "-1"]))
    text = atom.map(lambda ta: ta[0].format(a=ta[1]))
    return st.one_of(text, st.tuples(text, text, st.sampled_from("+*")).map(
        lambda abo: f"({abo[0]}) {abo[2]} ({abo[1]})"))


@given(st.lists(components(), min_size=1, max_size=3),
       st.integers(0, 5), st.sampled_from([8, 16, 64]))
@settings(max_examples=120, deadline=None)
def test_column_verdicts_equal_the_per_point_ones(texts, seed, n):
    same_verdicts(texts, SamplingPolicy(seed=seed, n_samples=n))


def counted_calls(monkeypatch):
    """(expression, start, stop) of every call of a compiled function."""
    calls = []
    compile_ = ex._compile

    def counted(e):
        f = compile_(e)

        def g(*args):   # (columns, start, stop, put)
            calls.append((e,) + args[1:3])
            return f(*args)
        return g

    monkeypatch.setattr(ex, "_compile", counted)
    ex.clear_tables()   # so that no compiled function is remembered
    return calls


def test_a_dense_nonvanishing_calls_the_compiled_function_once(monkeypatch):
    calls = counted_calls(monkeypatch)
    e = ex.normalize(ex.parse("2 + sin(x)*y", ("x", "y")))
    pol = SamplingPolicy(seed=137, n_samples=1024)
    assert nonvanishing([e], BOX, pol).ok
    assert calls == [(e, 0, 1024)]


def test_a_zero_check_stops_at_its_first_witness(monkeypatch):
    calls = counted_calls(monkeypatch)
    x_minus_2, y = (ex.normalize(ex.parse(t, ("x", "y")))
                    for t in ("x - 2", "y"))
    pol = SamplingPolicy(seed=137, n_samples=1024)
    assert is_zero_many([x_minus_2, y], BOX, pol).kind == "nonzero"
    assert calls == [(x_minus_2, 0, 1)]
