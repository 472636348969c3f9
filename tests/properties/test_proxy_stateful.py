"""Model-based stateful tests.

A hypothesis state machine drives the proxy (and, separately, the
ranked queue) through random operation sequences — arrivals, rank
changes, reads, link flaps, time advances — checking the structural
invariants of :mod:`repro.proxy.invariants` after every step.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.broker.message import Notification
from repro.metrics.accounting import RunStats
from repro.proxy.invariants import assert_topic_state, check_topic_state
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.proxy.queues import RankedQueue
from repro.sim.engine import Simulator
from repro.types import EventId, NetworkStatus, TopicId

TOPIC = TopicId("t")


class RecordingTransport:
    def __init__(self):
        self.delivered_ids = []
        self.retracted_ids = []

    def deliver(self, notification, mode):
        self.delivered_ids.append(notification.event_id)

    def retract(self, event_id):
        self.retracted_ids.append(event_id)


class ProxyMachine(RuleBasedStateMachine):
    """Random walks over the proxy's external interface."""

    @initialize(
        policy=st.sampled_from(
            [
                PolicyConfig.online(),
                PolicyConfig.on_demand(),
                PolicyConfig.buffer(prefetch_limit=4),
                PolicyConfig.unified(),
                PolicyConfig.unified(expiration_threshold=50.0, delay=10.0),
            ]
        ),
        threshold=st.sampled_from([0.0, 2.0]),
    )
    def setup(self, policy, threshold):
        self.sim = Simulator()
        self.transport = RecordingTransport()
        self.stats = RunStats()
        self.proxy = LastHopProxy(self.sim, policy)
        self.threshold = threshold
        self.proxy.add_binding(
            TOPIC,
            transport=self.transport,
            stats=self.stats,
            rank_threshold=threshold,
        )
        self.next_id = 0
        self.known_ids = []
        self.link_up = True

    # ----------------------------------------------------------------
    @rule(rank=st.floats(min_value=0.0, max_value=5.0),
          lifetime=st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)))
    def arrival(self, rank, lifetime):
        event_id = EventId(self.next_id)
        self.next_id += 1
        self.known_ids.append(event_id)
        self.proxy.on_notification(
            Notification(
                event_id=event_id,
                topic=TOPIC,
                rank=rank,
                published_at=self.sim.now,
                expires_at=None if lifetime is None else self.sim.now + lifetime,
            )
        )

    @rule(data=st.data(), new_rank=st.floats(min_value=0.0, max_value=5.0))
    def rank_change(self, data, new_rank):
        if not self.known_ids:
            return
        event_id = data.draw(st.sampled_from(self.known_ids))
        original = self.proxy.topic_state(TOPIC).history.get(event_id)
        if original is None:
            return  # was filtered or never accepted
        self.proxy.on_notification(
            Notification(
                event_id=event_id,
                topic=TOPIC,
                rank=new_rank,
                published_at=original.published_at,
                expires_at=original.expires_at,
            )
        )

    @rule(n=st.integers(min_value=1, max_value=10),
          client_queue=st.integers(min_value=0, max_value=20))
    def read(self, n, client_queue):
        if not self.link_up:
            return
        self.proxy.on_read(TOPIC, n, queue_size=client_queue)

    @rule()
    def flap_link(self):
        self.link_up = not self.link_up
        self.proxy.on_topic_network(
            TOPIC, NetworkStatus.UP if self.link_up else NetworkStatus.DOWN
        )

    @rule(amount=st.floats(min_value=0.1, max_value=200.0))
    def advance_time(self, amount):
        self.sim.run(until=self.sim.now + amount)

    @rule(size=st.integers(min_value=0, max_value=50))
    def queue_report(self, size):
        self.proxy.on_queue_report(TOPIC, size)

    @rule(delay=st.sampled_from([0.0, 5.0, 50.0]))
    def crash_and_restart(self, delay):
        """Crash the binding; recovery rebuilds from retained history.

        ``crash_restart_topic`` (the fault-plan hook) absorbs crashes landing
        while a restart is already pending, so this rule is always
        legal; a pending restart fires inside ``advance_time``.
        """
        self.proxy.crash_restart_topic(TOPIC, delay)

    @rule(data=st.data())
    def duplicate_arrival(self, data):
        """Redeliver an already-accepted notification verbatim."""
        if not self.known_ids:
            return
        event_id = data.draw(st.sampled_from(self.known_ids))
        original = self.proxy.topic_state(TOPIC).history.get(event_id)
        if original is None:
            return
        self.proxy.on_notification(
            Notification(
                event_id=event_id,
                topic=TOPIC,
                rank=original.rank,
                published_at=original.published_at,
                expires_at=original.expires_at,
            )
        )

    @rule(
        count=st.integers(min_value=1, max_value=4),
        shuffled=st.booleans(),
        duplicated=st.booleans(),
    )
    def read_report(self, count, shuffled, duplicated):
        """An offline-read log: possibly stale, out of order, duplicated.

        Exactly what a faulty device resends after reconnection — the
        proxy's monotone merge must tolerate all of it.
        """
        now = self.sim.now
        entries = [
            (max(0.0, now - 10.0 * (i + 1)), 1 + (i % 3)) for i in range(count)
        ]
        if shuffled:
            entries.reverse()  # newest first: strictly out of order
        if duplicated:
            entries = entries + entries[:1]
        self.proxy.on_read_report(TOPIC, entries)

    # ----------------------------------------------------------------
    @invariant()
    def structural_invariants_hold(self):
        if not hasattr(self, "proxy"):
            return
        assert_topic_state(self.proxy.topic_state(TOPIC), self.sim.now)

    @invariant()
    def engine_invariants_hold(self):
        if not hasattr(self, "proxy"):
            return
        assert self.sim.audit() == []

    @invariant()
    def deliveries_respect_threshold_at_send_time(self):
        if not hasattr(self, "proxy"):
            return
        # Every retraction targets something that was delivered.
        delivered = set(self.transport.delivered_ids)
        assert set(self.transport.retracted_ids) <= delivered

    @invariant()
    def stats_are_consistent(self):
        if not hasattr(self, "proxy"):
            return
        assert self.stats.accepted + self.stats.filtered <= (
            self.stats.arrivals + self.stats.rank_changes
        )
        assert self.stats.forwarded <= self.stats.accepted


ProxyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestProxyMachine = ProxyMachine.TestCase


class QueueMachine(RuleBasedStateMachine):
    """RankedQueue against a dict model."""

    def __init__(self):
        super().__init__()
        self.queue = RankedQueue()
        self.model = {}
        self.counter = 0

    @rule(rank=st.floats(min_value=0.0, max_value=5.0))
    def add(self, rank):
        event_id = EventId(self.counter)
        self.counter += 1
        item = Notification(
            event_id=event_id, topic=TOPIC, rank=rank, published_at=0.0
        )
        self.queue.add(item)
        self.model[event_id] = item

    @rule(data=st.data())
    def remove(self, data):
        if not self.model:
            return
        event_id = data.draw(st.sampled_from(sorted(self.model)))
        removed = self.queue.remove(event_id)
        assert removed is self.model.pop(event_id)

    @rule(data=st.data(), new_rank=st.floats(min_value=0.0, max_value=5.0))
    def reorder(self, data, new_rank):
        if not self.model:
            return
        event_id = data.draw(st.sampled_from(sorted(self.model)))
        self.model[event_id].rank = new_rank
        self.queue.reorder(self.model[event_id])

    @rule()
    def pop(self):
        popped = self.queue.pop_highest()
        if not self.model:
            assert popped is None
            return
        best_rank = max(m.rank for m in self.model.values())
        assert popped is not None
        assert popped.rank == pytest.approx(best_rank)
        del self.model[popped.event_id]

    @invariant()
    def sizes_match(self):
        assert len(self.queue) == len(self.model)

    @invariant()
    def top_matches_model(self):
        top = self.queue.peek_highest()
        if not self.model:
            assert top is None
        else:
            assert top.rank == pytest.approx(
                max(m.rank for m in self.model.values())
            )


QueueMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestQueueMachine = QueueMachine.TestCase


def test_check_topic_state_reports_violations():
    """The checker itself must catch a seeded inconsistency."""
    sim = Simulator()
    proxy = LastHopProxy(sim, PolicyConfig.on_demand())
    state = proxy.add_binding(
        TOPIC, transport=RecordingTransport(), stats=RunStats()
    )
    item = Notification(event_id=EventId(1), topic=TOPIC, rank=1.0, published_at=0.0)
    state.prefetch.add(item)  # queued but not in history
    state.forwarded.add(item.event_id)  # and simultaneously forwarded
    violations = check_topic_state(state, now=0.0)
    assert any("forwarded" in v for v in violations)
    assert any("history" in v for v in violations)
