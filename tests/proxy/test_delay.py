"""Unit tests for the rank-instability delay tracker."""

import pytest

from repro.proxy.delay import DROP_WINDOW, MAX_DELAY, DelayTracker
from repro.units import DAY


class TestDefaults:
    def test_no_drops_no_delay(self):
        tracker = DelayTracker()
        for _ in range(100):
            tracker.record_publication()
        assert tracker.current_delay() == 0.0
        assert tracker.drop_fraction == 0.0

    def test_delay_tracks_drop_percentile(self):
        tracker = DelayTracker()
        delays = [float(i) for i in range(1, 101)]  # 1..100 s
        for delay in delays:
            tracker.record_publication()
            tracker.record_drop(delay)
        assert tracker.current_delay() == pytest.approx(96.0, abs=2.0)

    def test_delay_capped(self):
        tracker = DelayTracker()
        tracker.record_drop(5 * DAY)
        assert tracker.current_delay() == MAX_DELAY

    def test_negative_drop_delay_clamped(self):
        tracker = DelayTracker()
        tracker.record_drop(-5.0)
        assert tracker.current_delay() == 0.0

    def test_drop_fraction(self):
        tracker = DelayTracker()
        for _ in range(10):
            tracker.record_publication()
        tracker.record_drop(1.0)
        tracker.record_drop(2.0)
        assert tracker.drop_fraction == pytest.approx(0.2)

    def test_window_slides(self):
        tracker = DelayTracker()
        for delay in [100.0] + [1.0] * DROP_WINDOW:
            tracker.record_drop(delay)
        assert tracker.current_delay() == pytest.approx(1.0)


class TestPercentileBoundaries:
    """Nearest-rank index ``ceil(p*n) - 1`` at small window sizes.

    The old ``int(p * n)`` index was biased high: over twenty samples
    it picked the max. These pin the nearest-rank semantics for the
    sample counts the adaptive delay visits early in a run, when only a
    handful of drops have been observed.
    """

    @staticmethod
    def _tracker(delays):
        tracker = DelayTracker()
        for delay in delays:
            tracker.record_drop(delay)
        return tracker

    def test_single_sample_is_that_sample(self):
        assert self._tracker([7.0]).current_delay() == pytest.approx(7.0)

    def test_two_samples_high_percentile_is_max(self):
        tracker = self._tracker([10.0, 20.0])
        assert tracker.current_delay() == pytest.approx(20.0)

    def test_three_samples_high_percentile_is_max(self):
        tracker = self._tracker([30.0, 10.0, 20.0])
        assert tracker.current_delay() == pytest.approx(30.0)

    def test_twenty_samples_is_nearest_rank(self):
        tracker = self._tracker([float(i) for i in range(20, 0, -1)])
        assert tracker.current_delay() == pytest.approx(19.0)
