"""Regression tests for offline read-report merging.

The device piggybacks a log of reads it performed while disconnected on
its reconnection announcement. That log can race the reconnection READ:
if the READ is processed first, the proxy's interval average already
holds a timestamp *newer* than every log entry, and the old code died
with ``ConfigurationError: timestamps must be non-decreasing``. The log
itself may also arrive unsorted. Either way, a reordered device log must
never kill the run.
"""

import pytest

from repro.errors import ProxyError
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import TopicId

TOPIC = TopicId("t")


class NullTransport:
    def deliver(self, notification, mode):
        pass

    def retract(self, event_id):
        pass


def build():
    sim = Simulator()
    proxy = LastHopProxy(sim, PolicyConfig.on_demand())
    proxy.add_binding(TOPIC, transport=NullTransport(), stats=RunStats())
    return sim, proxy


class TestReadReportMerge:
    def test_report_after_reconnect_read_does_not_crash(self):
        # The reconnect-after-READ race: the READ at t=100 lands before
        # the offline log covering t=20..40 arrives.
        sim, proxy = build()
        sim.schedule_at(100.0, proxy.on_read, TOPIC, 2, 0)
        sim.run(until=101.0)
        state = proxy.topic_state(TOPIC)
        assert state.old_times.last == pytest.approx(100.0)

        proxy.on_read_report(TOPIC, [(40.0, 3), (20.0, 1)])

        # Both read sizes feed the prefetch-limit average; the stale
        # timestamps are skipped by the interval average, whose window
        # already covers that span.
        assert state.old_reads.count == 3  # the READ plus both log entries
        assert state.old_times.last == pytest.approx(100.0)

    def test_unsorted_report_is_merged_in_time_order(self):
        _sim, proxy = build()
        proxy.on_read_report(TOPIC, [(30.0, 2), (10.0, 1), (20.0, 4)])
        state = proxy.topic_state(TOPIC)
        assert state.old_reads.count == 3
        # Sorted merge sees gaps 10, 10 — not the raw -20/+10 sequence.
        assert state.old_times.value == pytest.approx(10.0)
        assert state.old_times.last == pytest.approx(30.0)

    def test_mixed_stale_and_fresh_entries(self):
        sim, proxy = build()
        sim.schedule_at(100.0, proxy.on_read, TOPIC, 1, 0)
        sim.run(until=101.0)
        state = proxy.topic_state(TOPIC)

        proxy.on_read_report(TOPIC, [(90.0, 1), (110.0, 2)])

        # The fresh entry advances the interval average; the stale one
        # only feeds the read-size average.
        assert state.old_times.last == pytest.approx(110.0)
        assert state.old_reads.count == 3

    def test_negative_count_rejected_before_any_merge(self):
        _sim, proxy = build()
        with pytest.raises(ProxyError):
            proxy.on_read_report(TOPIC, [(10.0, 2), (20.0, -1)])
        # Validation runs before the merge, so a bad log leaves the
        # averages untouched.
        state = proxy.topic_state(TOPIC)
        assert state.old_reads.count == 0
        assert state.old_times.last is None

    def test_report_updates_adaptive_expiration_threshold(self):
        # The unified policy adapts the threshold to the read interval;
        # a merged offline log must feed that average too.
        sim = Simulator()
        proxy = LastHopProxy(sim, PolicyConfig.unified())
        proxy.add_binding(TOPIC, transport=NullTransport(), stats=RunStats())
        proxy.on_read_report(TOPIC, [(0.0, 1), (50.0, 1), (100.0, 1)])
        state = proxy.topic_state(TOPIC)
        assert state.expiration_threshold == pytest.approx(50.0)
