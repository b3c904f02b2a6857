"""Outermost-only call counting and self-time subtraction."""

import sys

import pytest

from tracer import Tracer, layer_metrics, layer_names, layer_totals, \
    self_times


def countdown(n):
    """Recurses through its module global, as expr.normalize does."""
    return 0 if n == 0 else countdown(n - 1)


def outer(n):
    inner()
    inner()
    return countdown(n)


def inner():
    return None


class StepClock:
    """Each reading is one tick later than the last."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def traced(monkeypatch):
    tracer = Tracer(clock=StepClock())
    module = sys.modules[__name__]
    for name in ("countdown", "outer", "inner"):
        monkeypatch.setattr(module, name,
                            tracer.wrap(f"t.{name}", getattr(module, name)))
    return tracer


def test_recursion_is_counted_once_per_outermost_call(traced):
    assert countdown(5) == 0
    assert countdown(3) == 0
    assert traced.names == ["t.countdown", "t.countdown"]
    totals = layer_totals(traced)
    assert totals["t.countdown.calls"] == 2


def test_self_time_subtracts_child_spans(traced):
    outer(4)
    # clock ticks: outer 1..8, inner 2..3 and 4..5, countdown 6..7
    assert traced.names == ["t.outer", "t.inner", "t.inner", "t.countdown"]
    assert list(traced.parents) == [-1, 0, 0, 0]
    totals = layer_totals(traced)
    assert totals["t.outer.total_s"] == 7.0
    assert totals["t.outer.self_s"] == 7.0 - 3.0
    assert totals["t.inner.calls"] == 2
    assert totals["t.inner.self_s"] == 2.0
    assert totals["t.countdown.self_s"] == 1.0


def test_self_times_take_the_union_of_children():
    starts = [0.0, 1.0, 2.0, 6.0, 6.2]
    ends = [10.0, 3.0, 4.0, 7.0, 6.5]
    parents = [-1, 0, 0, 0, 3]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10 - (3 + 1))
    assert selfs[3] == pytest.approx(1 - 0.3)
    assert selfs[4] == pytest.approx(0.3)


def test_exceptions_close_the_span(traced, monkeypatch):
    def boom():
        raise KeyError("x")

    wrapped = traced.wrap("t.boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert traced.errors == {0: "KeyError"}
    assert traced.ends[0] > traced.starts[0]
    countdown(1)
    assert list(traced.parents) == [-1, -1]


def test_install_wraps_every_binding_and_uninstall_restores():
    from engelkit import bundles, contact, engel, frames, kengel, sampling
    from engelkit import expr as ex
    import engelkit.report  # noqa: F401  (loads every module)
    original = sampling.nonvanishing
    tracer = Tracer()
    try:
        assert tracer.install() == []
        for mod in (sampling, frames, engel, kengel, contact, bundles):
            assert mod.nonvanishing is not original
            assert mod.nonvanishing.__wrapped__ is original
        tree = ex.add(ex.mul(ex.var("x"), ex.add(ex.var("y"), ex.ONE)),
                      ex.neg(ex.var("x")))
        ex.normalize(tree)
        ex.normalize(ex.normalize(tree))
    finally:
        totals = layer_totals(tracer)
    for mod in (sampling, frames, engel, kengel, contact, bundles):
        assert mod.nonvanishing is original
    assert totals["expr.normalize.calls"] == 3
    metrics = layer_metrics(totals)
    # the third call got an already canonical tree back unchanged
    assert metrics["expr.normalize.noop_frac"] == pytest.approx(1 / 3)
    assert set(metrics) | {"trace.overhead_frac"} == set(layer_names())
