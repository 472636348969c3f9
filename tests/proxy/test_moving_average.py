"""Unit tests for the proxy's moving averages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.proxy.moving_average import IntervalAverage, MovingAverage


class TestMovingAverage:
    def test_empty_average_is_none(self):
        ma = MovingAverage(window=3)
        assert ma.value is None
        assert ma.value_or(42.0) == 42.0
        assert ma.count == 0

    def test_average_of_observations(self):
        ma = MovingAverage(window=5)
        for v in (1.0, 2.0, 3.0):
            ma.push(v)
        assert ma.value == pytest.approx(2.0)
        assert ma.count == 3

    def test_window_slides(self):
        ma = MovingAverage(window=2)
        for v in (10.0, 20.0, 30.0):
            ma.push(v)
        assert ma.value == pytest.approx(25.0)
        assert ma.count == 2

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MovingAverage(window=0)

    def test_value_or_after_observations(self):
        ma = MovingAverage(window=3)
        ma.push(7.0)
        assert ma.value_or(0.0) == pytest.approx(7.0)


class TestIntervalAverage:
    def test_needs_two_timestamps(self):
        ia = IntervalAverage(window=3)
        assert ia.value is None
        ia.push(10.0)
        assert ia.value is None
        ia.push(14.0)
        assert ia.value == pytest.approx(4.0)

    def test_mean_of_gaps(self):
        ia = IntervalAverage(window=10)
        for t in (0.0, 2.0, 6.0, 12.0):
            ia.push(t)
        assert ia.value == pytest.approx(4.0)  # gaps 2, 4, 6

    def test_window_slides_over_gaps(self):
        ia = IntervalAverage(window=2)
        for t in (0.0, 1.0, 3.0, 7.0):
            ia.push(t)
        assert ia.value == pytest.approx(3.0)  # last two gaps: 2, 4

    def test_out_of_order_rejected(self):
        ia = IntervalAverage()
        ia.push(10.0)
        with pytest.raises(ConfigurationError):
            ia.push(5.0)

    def test_equal_timestamps_allowed(self):
        ia = IntervalAverage()
        ia.push(5.0)
        ia.push(5.0)
        assert ia.value == pytest.approx(0.0)

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60)
def test_property_moving_average_matches_naive(values, window):
    ma = MovingAverage(window=window)
    for v in values:
        ma.push(v)
    expected = sum(values[-window:]) / len(values[-window:])
    assert ma.value == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestRunningSumDrift:
    """The incremental running sum must not drift from the true window sum."""

    def test_rebase_clears_large_magnitude_residue(self):
        # Four huge values pass through the window, then small ones.
        # Pure add/subtract loses every 0.1 against the 1e17 running
        # sum (1e17 + 0.1 == 1e17 in float64), leaving value == 0.0
        # forever; the periodic fsum rebase restores the exact window
        # sum within one window's worth of evictions.
        ma = MovingAverage(window=4)
        for _ in range(4):
            ma.push(1e17)
        for _ in range(12):
            ma.push(0.1)
        assert ma.value == pytest.approx(0.1, rel=1e-12)

    @given(
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_tracks_fsum_of_window(self, values, window):
        import math

        ma = MovingAverage(window)
        for value in values:
            ma.push(value)
        tail = values[-window:]
        expected = math.fsum(tail) / len(tail)
        # Error is bounded by one window's worth of rounding against the
        # largest magnitude seen — independent of how many values were
        # pushed overall (that is what the periodic rebase guarantees).
        scale = max(1.0, max(abs(v) for v in values))
        assert abs(ma.value - expected) <= 1e-9 * scale


class TestRingBuffer:
    def test_eviction_order_is_fifo(self):
        ma = MovingAverage(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            ma.push(v)
        assert ma.value == pytest.approx(3.0)  # window [2, 3, 4]
        assert ma._ordered() == [2.0, 3.0, 4.0]
