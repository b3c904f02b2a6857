"""The percentile helper refuses under-sampled tails."""

import pytest

from run import MIN_SAMPLES, percentile


def test_p90_needs_ten_samples_above_it():
    with pytest.raises(ValueError, match="9 above"):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == pytest.approx(89.5, abs=0.01)
    assert MIN_SAMPLES == 100


def test_p50_needs_ten_samples_above_it():
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(20), 50) == pytest.approx(9.5)


def test_percentile_sorts_its_input():
    values = list(range(200))[::-1]
    assert percentile(values, 50) == pytest.approx(99.5)
    assert percentile(values, 90) == pytest.approx(179.5, abs=0.01)


def test_percentile_moves_smoothly_across_a_cluster_edge():
    # one sample crossing the nearest rank (90 of 120) would move a
    # nearest-rank p75 from 1 to 2
    below = percentile([1.0] * 90 + [2.0] * 30, 75)
    above = percentile([1.0] * 89 + [2.0] * 31, 75)
    assert 0 < above - below < 0.2
