"""Unit tests for delivery schedules (§2.2 refinements)."""

import pytest

from repro.broker.message import Notification
from repro.errors import ConfigurationError
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.proxy.schedule import DeliverySchedule, PushBudget, QuietHours
from repro.sim.engine import Simulator
from repro.types import EventId, TopicId, TopicType
from repro.units import DAY, HOUR

TOPIC = TopicId("t")


class FakeTransport:
    def __init__(self):
        self.delivered = []
        self.retracted = []

    def deliver(self, notification, mode):
        self.delivered.append(notification.event_id)

    def retract(self, event_id):
        self.retracted.append(event_id)


def build(policy, schedule, topic_type=TopicType.ONLINE):
    sim = Simulator()
    transport = FakeTransport()
    proxy = LastHopProxy(sim, policy)
    proxy.add_binding(
        TOPIC,
        transport=transport,
        stats=RunStats(),
        topic_type=topic_type,
        schedule=schedule,
    )
    return sim, transport, proxy


def note(event_id, rank=1.0, published_at=0.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TOPIC,
        rank=rank,
        published_at=published_at,
        expires_at=expires_at,
    )


class TestQuietHours:
    def test_windows_validation(self):
        with pytest.raises(ConfigurationError):
            QuietHours(windows=((9.0, 8.0),)).validate()
        with pytest.raises(ConfigurationError):
            QuietHours(windows=((1.0, 5.0), (4.0, 6.0))).validate()
        QuietHours(windows=((0.0, 7.0), (22.0, 24.0))).validate()

    def test_quiet_end(self):
        quiet = QuietHours(windows=((9.0, 10.0),))
        assert quiet.quiet_end(8.5 * HOUR) is None
        assert quiet.quiet_end(9.5 * HOUR) == pytest.approx(10.0 * HOUR)
        assert quiet.quiet_end(11.0 * HOUR) is None
        # Second day, same window.
        assert quiet.quiet_end(DAY + 9.5 * HOUR) == pytest.approx(DAY + 10 * HOUR)


class TestPushBudget:
    def test_uncapped(self):
        budget = PushBudget(None)
        assert all(budget.try_spend(0.0) for _ in range(100))

    def test_cap_enforced_and_reset_daily(self):
        budget = PushBudget(2)
        assert budget.try_spend(0.0)
        assert budget.try_spend(1.0)
        assert not budget.try_spend(2.0)
        assert budget.remaining(2.0) == 0.0
        assert budget.try_spend(DAY + 1.0)  # next day resets
        assert budget.remaining(DAY + 1.0) == 1.0


class TestQuietDeferral:
    def test_push_deferred_until_quiet_ends(self):
        schedule = DeliverySchedule(quiet_hours=QuietHours(windows=((9.0, 10.0),)))
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        sim.schedule_at(9.5 * HOUR, proxy.on_notification, note(1, rank=2.0))
        sim.run(until=9.75 * HOUR)
        assert transport.delivered == []
        sim.run(until=10.25 * HOUR)
        assert transport.delivered == [1]
        assert sim.now >= 10.0 * HOUR

    def test_push_outside_quiet_goes_immediately(self):
        schedule = DeliverySchedule(quiet_hours=QuietHours(windows=((9.0, 10.0),)))
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        sim.schedule_at(8.0 * HOUR, proxy.on_notification, note(1))
        sim.run(until=8.1 * HOUR)
        assert transport.delivered == [1]

    def test_urgent_breaks_through_quiet(self):
        schedule = DeliverySchedule(
            quiet_hours=QuietHours(windows=((9.0, 10.0),)), urgent_threshold=4.5
        )
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        sim.schedule_at(9.5 * HOUR, proxy.on_notification, note(1, rank=2.0))
        sim.schedule_at(9.6 * HOUR, proxy.on_notification, note(2, rank=4.9))
        sim.run(until=9.9 * HOUR)
        assert transport.delivered == [2]
        sim.run(until=10.5 * HOUR)
        assert sorted(transport.delivered) == [1, 2]

    def test_multiple_deferred_events_released_together(self):
        schedule = DeliverySchedule(quiet_hours=QuietHours(windows=((9.0, 10.0),)))
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        for i, rank in enumerate((1.0, 3.0, 2.0), start=1):
            sim.schedule_at(9.1 * HOUR + i, proxy.on_notification, note(i, rank=rank))
        sim.run(until=11.0 * HOUR)
        assert sorted(transport.delivered) == [1, 2, 3]


class TestDailyPushCap:
    def test_cap_spills_to_prefetch(self):
        schedule = DeliverySchedule(max_pushes_per_day=2)
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        for i in range(5):
            proxy.on_notification(note(i, rank=float(i)))
        assert len(transport.delivered) == 2
        state = proxy.topic_state(TOPIC)
        assert len(state.prefetch) == 3

    def test_cap_resets_next_day(self):
        schedule = DeliverySchedule(max_pushes_per_day=1)
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        proxy.on_notification(note(1))
        proxy.on_notification(note(2))
        assert transport.delivered == [1]
        sim.schedule_at(DAY + 1.0, proxy.on_notification, note(3))
        sim.run(until=DAY + 2.0)
        # The new day's budget admits one more push; event 3 arrived
        # fresh into outgoing and is pushed first.
        assert len(transport.delivered) == 2

    def test_capped_events_still_readable_on_demand(self):
        schedule = DeliverySchedule(max_pushes_per_day=0)
        sim, transport, proxy = build(PolicyConfig.online(), schedule)
        proxy.on_notification(note(1, rank=3.0))
        assert transport.delivered == []
        response = proxy.on_read(TOPIC, 5, queue_size=0)
        assert [n.event_id for n in response.sent] == [1]


class TestQuietCoversPrefetchPath:
    def test_budget_spill_not_prefetched_during_quiet(self):
        """Regression: events spilled to the prefetch queue by the daily
        cap must not leak to an on-line topic's device during quiet
        hours — on an on-line topic a prefetch push still displays."""
        schedule = DeliverySchedule(
            quiet_hours=QuietHours(windows=((9.0, 10.0),)),
            max_pushes_per_day=1,
        )
        sim, transport, proxy = build(PolicyConfig.unified(), schedule)
        # Two arrivals outside quiet: one pushed (budget), one spilled.
        sim.schedule_at(8.0 * HOUR, proxy.on_notification, note(1, rank=1.0))
        sim.schedule_at(8.1 * HOUR, proxy.on_notification, note(2, rank=2.0))
        sim.run(until=8.5 * HOUR)
        assert transport.delivered == [1]
        # During quiet, room opens up (queue report) — still no push.
        sim.schedule_at(9.5 * HOUR, proxy.on_queue_report, TOPIC, 0)
        sim.schedule_at(9.6 * HOUR, proxy.on_notification, note(3, rank=0.5))
        sim.run(until=9.9 * HOUR)
        assert transport.delivered == [1]
        # After quiet ends, the next day's budget is still spent; the
        # spilled events wait for tomorrow.
        sim.run(until=11.0 * HOUR)
        assert transport.delivered == [1]
        sim.schedule_at(DAY + 8.0 * HOUR, proxy.on_notification, note(4, rank=0.1))
        sim.run(until=DAY + 9.0 * HOUR)
        assert len(transport.delivered) == 2  # one more push, new budget


class TestUrgentInterrupt:
    def test_urgent_pushes_on_on_demand_topic(self):
        schedule = DeliverySchedule(urgent_threshold=4.5)
        sim, transport, proxy = build(
            PolicyConfig.on_demand(), schedule, topic_type=TopicType.ON_DEMAND
        )
        proxy.on_notification(note(1, rank=3.0))   # stays at the proxy
        proxy.on_notification(note(2, rank=4.8))   # tornado warning
        assert transport.delivered == [2]

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            DeliverySchedule(max_pushes_per_day=-1).validate()
        with pytest.raises(ConfigurationError):
            DeliverySchedule(urgent_threshold=-1.0).validate()
