"""Unit tests for trace records and validation."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.trace import (
    ArrivalRecord,
    OutageRecord,
    RankChangeRecord,
    ReadRecord,
    Trace,
)
from repro.types import EventId, NetworkStatus


def arrival(time=1.0, event_id=1, rank=2.0, expires_at=None):
    return ArrivalRecord(
        time=time, event_id=EventId(event_id), rank=rank, expires_at=expires_at
    )


class TestRecords:
    def test_arrival_lifetime(self):
        assert arrival(time=10.0, expires_at=25.0).lifetime == 15.0
        assert arrival().lifetime is None

    def test_outage_duration_and_contains(self):
        outage = OutageRecord(start=10.0, end=20.0)
        assert outage.duration == 10.0
        assert outage.contains(10.0)
        assert outage.contains(19.99)
        assert not outage.contains(20.0)
        assert not outage.contains(9.99)


class TestValidation:
    def test_valid_trace_passes(self):
        trace = Trace(
            duration=100.0,
            arrivals=(arrival(1.0, 1), arrival(2.0, 2)),
            reads=(ReadRecord(time=5.0, count=8),),
            outages=(OutageRecord(10.0, 20.0),),
            rank_changes=(RankChangeRecord(3.0, EventId(1), 0.5),),
        )
        trace.validate()

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(duration=0.0).validate()

    def test_unsorted_arrivals_rejected(self):
        trace = Trace(duration=100.0, arrivals=(arrival(5.0, 1), arrival(2.0, 2)))
        with pytest.raises(ConfigurationError, match="not sorted"):
            trace.validate()

    def test_duplicate_event_ids_rejected(self):
        trace = Trace(duration=100.0, arrivals=(arrival(1.0, 1), arrival(2.0, 1)))
        with pytest.raises(ConfigurationError, match="duplicate"):
            trace.validate()

    def test_arrival_beyond_duration_rejected(self):
        trace = Trace(duration=100.0, arrivals=(arrival(150.0, 1),))
        with pytest.raises(ConfigurationError):
            trace.validate()

    def test_expiry_before_arrival_rejected(self):
        trace = Trace(duration=100.0, arrivals=(arrival(10.0, 1, expires_at=5.0),))
        with pytest.raises(ConfigurationError, match="expires"):
            trace.validate()

    def test_negative_read_count_rejected(self):
        trace = Trace(duration=100.0, reads=(ReadRecord(time=1.0, count=-1),))
        with pytest.raises(ConfigurationError):
            trace.validate()

    def test_overlapping_outages_rejected(self):
        trace = Trace(
            duration=100.0,
            outages=(OutageRecord(10.0, 30.0), OutageRecord(20.0, 40.0)),
        )
        with pytest.raises(ConfigurationError, match="overlap"):
            trace.validate()

    def test_empty_outage_rejected(self):
        trace = Trace(duration=100.0, outages=(OutageRecord(10.0, 10.0),))
        with pytest.raises(ConfigurationError):
            trace.validate()

    def test_outage_before_zero_rejected(self):
        trace = Trace(duration=100.0, outages=(OutageRecord(-5.0, 10.0),))
        with pytest.raises(ConfigurationError, match="outside"):
            trace.validate()

    def test_outage_beyond_duration_rejected(self):
        trace = Trace(duration=100.0, outages=(OutageRecord(90.0, 110.0),))
        with pytest.raises(ConfigurationError, match="outside"):
            trace.validate()

    def test_outage_touching_both_edges_accepted(self):
        Trace(duration=100.0, outages=(OutageRecord(0.0, 100.0),)).validate()

    def test_rank_change_for_unknown_event_rejected(self):
        trace = Trace(
            duration=100.0,
            arrivals=(arrival(1.0, 1),),
            rank_changes=(RankChangeRecord(5.0, EventId(99), 0.1),),
        )
        with pytest.raises(ConfigurationError, match="unknown event"):
            trace.validate()


class TestDerivedViews:
    def test_downtime_fraction(self):
        trace = Trace(
            duration=100.0,
            outages=(OutageRecord(0.0, 10.0), OutageRecord(50.0, 70.0)),
        )
        assert trace.downtime_fraction() == pytest.approx(0.30)

    def test_downtime_fraction_empty(self):
        assert Trace(duration=100.0).downtime_fraction() == 0.0

    def test_downtime_fraction_clamps_out_of_range_outage(self):
        # Hand-built (unvalidated) traces must not yield fractions
        # outside [0, 1].
        trace = Trace(duration=100.0, outages=(OutageRecord(-50.0, 150.0),))
        assert trace.downtime_fraction() == pytest.approx(1.0)

    def test_network_transitions(self):
        trace = Trace(duration=100.0, outages=(OutageRecord(10.0, 20.0),))
        transitions = list(trace.network_transitions())
        assert transitions == [
            (10.0, NetworkStatus.DOWN),
            (20.0, NetworkStatus.UP),
        ]

    def test_network_transitions_outage_reaching_end_has_no_up(self):
        trace = Trace(duration=100.0, outages=(OutageRecord(90.0, 100.0),))
        transitions = list(trace.network_transitions())
        assert transitions == [(90.0, NetworkStatus.DOWN)]

    def test_network_transitions_outage_starting_at_end_skipped(self):
        # An outage whose start coincides with the trace end covers
        # nothing simulable: no DOWN edge at t=duration.
        trace = Trace(duration=100.0, outages=(OutageRecord(100.0, 120.0),))
        assert list(trace.network_transitions()) == []

    def test_describe_mentions_counts(self):
        trace = Trace(duration=86400.0, arrivals=(arrival(1.0, 1),))
        text = trace.describe()
        assert "1 arrivals" in text
        assert "1 days" in text
