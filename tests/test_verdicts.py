"""The Verdict type and the zero/nonzero check helpers."""

from engelkit import expr as ex
from engelkit.frames import FrameSpace, nonzero, zero
from engelkit.sampling import SamplingPolicy, Verdict, failed, weakest

POLICY = SamplingPolicy(n_samples=16)


def box():
    return FrameSpace([("coord", "x", 0, 1, False),
                       ("coord", "y", 0, 1, False)])


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
