"""Audit-layer tests: corrupted live state must be caught while running.

The headline scenario (the reason the audit mode exists): a TopicState
that violates a structural invariant — here, one event sitting in two
queues at once — is detected within one sampling interval of ordinary
proxy transitions, and the raised error names the offending event and
carries the trailing trace records.
"""

import pytest

from repro.broker.message import Notification
from repro.errors import ConfigurationError
from repro.metrics.accounting import RunStats
from repro.obs.audit import Auditor
from repro.obs.recorder import TraceRecorder
from repro.proxy.invariants import InvariantViolation
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import NetworkStatus, TopicId

TOPIC = TopicId("t")


class NullTransport:
    def deliver(self, notification, mode):
        pass

    def retract(self, event_id):
        pass


def note(event_id, rank=1.0):
    return Notification(
        event_id=event_id, topic=TOPIC, rank=rank, published_at=0.0
    )


def build(auditor, recorder=None):
    sim = Simulator()
    proxy = LastHopProxy(
        sim, PolicyConfig.online(), recorder=recorder, auditor=auditor
    )
    proxy.add_binding(TOPIC, transport=NullTransport(), stats=RunStats())
    return sim, proxy


def corrupt_double_queue(proxy):
    """Plant the same event in two queues at once (never legal)."""
    state = proxy.topic_state(TOPIC)
    proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
    proxy.on_notification(note(1))  # queued in outgoing while down
    event = next(iter(state.outgoing))
    state.prefetch.add(event)
    return event


class TestAuditCatchesCorruption:
    def test_double_queued_event_caught_next_transition(self):
        recorder = TraceRecorder()
        auditor = Auditor(interval=1, recorder=recorder)
        _sim, proxy = build(auditor, recorder)
        proxy.on_notification(note(0))  # forwarded while up -> one trace record
        corrupt_double_queue(proxy)
        with pytest.raises(InvariantViolation) as excinfo:
            proxy.on_notification(note(2))
        message = str(excinfo.value)
        assert "in both outgoing and prefetch" in message
        assert "[1]" in message  # the offending event id, by name
        assert excinfo.value.violations
        assert any("outgoing" in v for v in excinfo.value.violations)
        # The trailing trace records rode along for post-mortem.
        assert excinfo.value.trace_context
        assert "last" in message and "trace records" in message

    def test_caught_within_one_sampling_interval(self):
        auditor = Auditor(interval=3)
        _sim, proxy = build(auditor)
        corrupt_double_queue(proxy)
        transitions_before = auditor.transitions
        raised_after = None
        for extra in range(1, 4):
            try:
                proxy.on_notification(note(10 + extra))
            except InvariantViolation:
                raised_after = extra
                break
        assert raised_after is not None
        assert raised_after <= 3  # within one interval of the corruption
        assert auditor.transitions - transitions_before == raised_after

    def test_healthy_run_never_raises(self):
        auditor = Auditor(interval=1)
        _sim, proxy = build(auditor)
        for i in range(20):
            proxy.on_notification(note(i))
        assert auditor.audits >= 20
        assert auditor.transitions >= 20


class TestAuditorMechanics:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Auditor(interval=0)

    def test_sampling_skips_between_audits(self):
        auditor = Auditor(interval=5)
        _sim, proxy = build(auditor)
        for i in range(10):
            proxy.on_notification(note(i))
        assert auditor.transitions == 10
        assert auditor.audits == 2  # the 5th and 10th transitions

    def test_context_disabled_without_recorder(self):
        auditor = Auditor(interval=1, recorder=None)
        _sim, proxy = build(auditor)
        corrupt_double_queue(proxy)
        with pytest.raises(InvariantViolation) as excinfo:
            proxy.on_notification(note(2))
        assert excinfo.value.trace_context == ()


class TestEngineAudit:
    def test_clean_engine_has_no_violations(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        assert sim.audit() == []

    def test_broken_heap_property_detected(self):
        sim = Simulator()
        for t in (5.0, 1.0, 3.0, 2.0):
            sim.schedule_at(t, lambda: None)
        sim._heap.sort(key=lambda entry: -entry[0])
        violations = sim.audit()
        assert violations
        assert any("heap property" in v for v in violations)

    def test_entry_disagreeing_with_its_event_detected(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        time, seq, event = sim._heap[-1]
        event.time = time + 10.0  # the event moved; its heap key did not
        violations = sim.audit()
        assert len(violations) == 1
        assert f"seq={seq}" in violations[0]
        assert "its event is" in violations[0]
