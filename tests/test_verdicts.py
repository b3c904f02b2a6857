"""The Verdict type, the zero/nonzero check helpers and sample points."""

from fractions import Fraction

import pytest

from engelkit import expr as ex
from engelkit import sampling
from engelkit.frames import FrameSpace, nonzero, zero
from engelkit.sampling import (PRIMES, SamplingPolicy, Verdict, failed,
                               halton, is_zero_expr, nonvanishing, weakest)

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


def test_points_are_built_once_and_equal_a_fresh_policy():
    pol = SamplingPolicy(seed=5, n_samples=8)
    first = pol.points(COORDS)
    assert pol.points(list(COORDS)) is first
    assert first == SamplingPolicy(seed=5, n_samples=8).points(COORDS)
    assert [dict(p) for p in first] == halton_points(5, 8, COORDS)


@pytest.mark.parametrize("seed, n, coords", [
    (6, 8, COORDS), (5, 9, COORDS), (5, 8, COORDS[:1]),
    (5, 8, (("x", 0, 2),) + COORDS[1:])])
def test_points_differ_across_seed_count_and_coords(seed, n, coords):
    pol = SamplingPolicy(seed=5, n_samples=8)
    pol.points(COORDS)
    other = SamplingPolicy(seed=seed, n_samples=n)
    assert other.points(coords) != pol.points(COORDS)
    assert [dict(p) for p in other.points(coords)] \
        == halton_points(seed, n, coords)


MIXED = (("x", 0, 1), ("y", Fraction(-1, 3), 2),
         ("z", Fraction(1, 7), Fraction(5, 3)), ("t", -2, Fraction(1, 2)))


@pytest.mark.parametrize("seed", [0, 137])
@pytest.mark.parametrize("n", [64, 1024])
def test_column_built_points_equal_the_formula_bit_for_bit(seed, n):
    pts = SamplingPolicy(seed=seed, n_samples=n).points(MIXED)
    assert len(pts) == n
    for i, pt in enumerate(pts):
        assert list(pt) == ["x", "y", "z", "t"]
        for j, (name, lo, hi) in enumerate(MIXED):
            want = float(lo) + halton(seed * n + i, PRIMES[j]) \
                * (float(hi) - float(lo))
            assert pt[name].hex() == want.hex()


def test_coordinate_tuples_share_their_halton_columns(monkeypatch):
    calls = []

    def counted(index, base):
        calls.append(base)
        return halton(index, base)

    monkeypatch.setattr(sampling, "halton", counted)
    pol = SamplingPolicy(seed=3, n_samples=16)
    pol.points(MIXED[:3])
    pol.points(MIXED)
    assert len(calls) == 4 * 16
    assert sorted(set(calls)) == [2, 3, 5, 7]


def test_a_space_without_coordinates_has_n_empty_points():
    pts = SamplingPolicy(n_samples=8).points(())
    assert [dict(p) for p in pts] == [{}] * 8


def test_a_verdict_point_cannot_change_later_points():
    pol = SamplingPolicy(n_samples=8)
    v = is_zero_expr(ex.parse("x - 2", ("x", "y")), COORDS, pol)
    assert v.kind == "nonzero"
    with pytest.raises(TypeError):
        v.point["x"] = 7.0
    with pytest.raises(TypeError):
        pol.points(COORDS)[0]["y"] = 7.0
    assert [dict(p) for p in pol.points(COORDS)] == halton_points(0, 8,
                                                                  COORDS)


def sampled_nonvanishing(exprs, coords, policy):
    """kind, value and point of nonvanishing's sampling loop, written out."""
    best = None
    for env in policy.points(coords):
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
    assert v.point == pol.points(coords)[0]
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
    assert any(p["x"] > 0.1882 for p in pol.points(coords))
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
