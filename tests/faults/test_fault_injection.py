"""Unit and integration tests for the fault-injection subsystem.

Covers the spec/plan layer (:mod:`repro.faults`), the link's ack-retry
protocol, device-side dedup, read-report corruption, and the proxy's
crash/restart recovery from retained history.
"""

import pytest

from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError, ProxyError
from repro.experiments.runner import run_scenario, wire_device
from repro.faults import PRESETS, FaultPlan, FaultSpec
from repro.obs.recorder import TraceRecorder
from repro.proxy.invariants import check_topic_state
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.metrics.accounting import RunStats
from repro.types import DeliveryMode, EventId, NetworkStatus, TopicId

TOPIC = TopicId("faults/topic")


def note(event_id=1, rank=1.0, size=512, expires_at=None, topic=TOPIC):
    return Notification(
        event_id=EventId(event_id),
        topic=topic,
        rank=rank,
        published_at=0.0,
        size_bytes=size,
        expires_at=expires_at,
    )


class TestFaultSpec:
    def test_default_is_null(self):
        assert FaultSpec().is_null
        assert FaultSpec.none().is_null

    def test_any_knob_change_is_not_null(self):
        assert not FaultSpec(loss_rate=0.1).is_null
        # Zero rates but non-default protocol knobs: still non-null, so
        # the ack-retry path engages (the "reliable" differential).
        assert not FaultSpec(max_retries=12).is_null

    def test_parse_preset(self):
        assert FaultSpec.parse("lossy") == PRESETS["lossy"]
        assert FaultSpec.parse("none").is_null

    def test_parse_json_object(self):
        spec = FaultSpec.parse('{"loss_rate": 0.25, "max_retries": 3}')
        assert spec.loss_rate == 0.25
        assert spec.max_retries == 3

    def test_parse_unknown_preset_lists_presets(self):
        with pytest.raises(ConfigurationError) as err:
            FaultSpec.parse("mostly-harmless")
        for name in PRESETS:
            assert name in str(err.value)

    def test_parse_unknown_json_key_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse('{"loss_rat": 0.25}')

    @pytest.mark.parametrize(
        "bad",
        [
            dict(loss_rate=1.5),
            dict(loss_rate=-0.1),
            dict(duplicate_rate=2.0),
            dict(report_duplicate_rate=-1.0),
            dict(jitter_mean=-1.0),
            dict(crashes_per_day=-1.0),
            dict(restart_delay=-1.0),
            dict(retry_base=0.0),
            dict(retry_base=4.0, retry_cap=1.0),
            dict(max_retries=-1),
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec(**bad).validate()

    def test_presets_all_validate(self):
        for spec in PRESETS.values():
            spec.validate()


class TestFaultPlan:
    def test_null_spec_builds_no_plan(self):
        assert FaultPlan.build(None, seed=0, duration=100.0) is None
        assert FaultPlan.build(FaultSpec.none(), seed=0, duration=100.0) is None
        assert FaultPlan.none() is None

    def test_decisions_are_deterministic(self):
        a = FaultPlan.build(PRESETS["lossy"], seed=7, duration=100.0)
        b = FaultPlan.build(PRESETS["lossy"], seed=7, duration=100.0)
        for event_id in range(50):
            assert a.drop_delivery(event_id, 1) == b.drop_delivery(event_id, 1)
            assert a.duplicate_delivery(event_id) == b.duplicate_delivery(event_id)
            assert a.delivery_jitter(event_id, 1) == b.delivery_jitter(event_id, 1)

    def test_dropped_set_is_monotone_in_loss_rate(self):
        low = FaultPlan.build(FaultSpec(loss_rate=0.1), seed=3, duration=10.0)
        high = FaultPlan.build(FaultSpec(loss_rate=0.4), seed=3, duration=10.0)
        dropped_low = {
            (e, a)
            for e in range(200)
            for a in range(1, 4)
            if low.drop_delivery(e, a)
        }
        dropped_high = {
            (e, a)
            for e in range(200)
            for a in range(1, 4)
            if high.drop_delivery(e, a)
        }
        assert dropped_low < dropped_high

    def test_retry_backoff_caps(self):
        plan = FaultPlan.build(
            FaultSpec(loss_rate=0.1, retry_base=1.0, retry_cap=8.0),
            seed=0,
            duration=10.0,
        )
        assert [plan.retry_backoff(a) for a in range(1, 7)] == [
            1.0, 2.0, 4.0, 8.0, 8.0, 8.0,
        ]

    def test_jitter_is_nonnegative_and_zero_without_mean(self):
        plan = FaultPlan.build(
            FaultSpec(jitter_mean=0.5), seed=1, duration=10.0
        )
        assert all(plan.delivery_jitter(e, 1) >= 0.0 for e in range(100))
        no_jitter = FaultPlan.build(
            FaultSpec(loss_rate=0.1), seed=1, duration=10.0
        )
        assert no_jitter.delivery_jitter(5, 1) == 0.0

    def test_crash_times_realized_within_duration(self):
        plan = FaultPlan.build(
            FaultSpec(crashes_per_day=48.0), seed=5, duration=86400.0
        )
        assert plan.crash_times, "expected crashes at 48/day over a day"
        assert all(0.0 <= t <= 86400.0 for t in plan.crash_times)
        again = FaultPlan.build(
            FaultSpec(crashes_per_day=48.0), seed=5, duration=86400.0
        )
        assert plan.crash_times == again.crash_times

    def test_corrupt_read_report_appends_duplicates(self):
        plan = FaultPlan.build(
            FaultSpec(report_duplicate_rate=1.0), seed=2, duration=10.0
        )
        entries = [(10.0, 4), (20.0, 8)]
        corrupted, injected = plan.corrupt_read_report(entries)
        assert injected == 2
        assert corrupted == entries + entries  # stale copies at the end
        clean_plan = FaultPlan.build(
            FaultSpec(loss_rate=0.1), seed=2, duration=10.0
        )
        assert clean_plan.corrupt_read_report(entries) == (entries, 0)

    def test_draws_are_pinned(self):
        """Hard-coded outcomes: any change to the hashed key string (or
        to how a digest becomes a uniform) fails here, not only in the
        benchmark digests."""
        plan = FaultPlan.build(
            FaultSpec(
                loss_rate=0.5,
                duplicate_rate=0.5,
                jitter_mean=2.0,
                report_duplicate_rate=0.5,
            ),
            seed=12345,
            duration=100.0,
        )
        assert [
            plan.drop_delivery(event_id, attempt)
            for event_id, attempt in [
                (1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (7, 4), (42, 1), (42, 2),
            ]
        ] == [True, False, True, False, True, False, True, False]
        assert [plan.duplicate_delivery(e) for e in (1, 2, 3, 7, 42, 99)] == [
            True, False, True, True, True, True,
        ]
        assert [
            plan.delivery_jitter(event_id, attempt)
            for event_id, attempt in [(1, 1), (2, 1), (42, 3)]
        ] == [1.705294500459576, 0.7917410074256439, 1.6018733600546047]
        entries = [(10.0, 2), (250.5, 1), (3600.0, 4), (7200.25, 0)]
        assert plan.corrupt_read_report(entries) == (entries, 0)
        entries = [(0.0, 1), (1.0, 3), (60.0, 2), (86400.0, 5), (900.0, 1)]
        assert plan.corrupt_read_report(entries) == (
            entries + [(0.0, 1), (60.0, 2), (900.0, 1)],
            3,
        )


def wired_link(spec, seed=0):
    sim = Simulator()
    stats = RunStats()
    plan = FaultPlan.build(spec, seed=seed, duration=1000.0)
    link = LastHopLink(sim, stats, faults=plan)
    received = []

    class Recorder:
        def receive(self, notification, mode):
            received.append(notification.event_id)

        def retract(self, event_id):
            pass

    link.attach_device(Recorder())
    return sim, stats, link, received


class TestLinkRetryProtocol:
    def test_total_loss_exhausts_retry_budget(self):
        spec = FaultSpec(loss_rate=1.0, max_retries=2, retry_base=1.0, retry_cap=4.0)
        sim, stats, link, received = wired_link(spec)
        link.deliver(note(size=100), DeliveryMode.PUSHED)
        sim.run(until=100.0)
        # Attempts 1..3 all drop; attempt 3 exceeds the 2-retry budget.
        assert stats.delivery_drops == 3
        assert stats.delivery_retries == 2
        assert stats.delivery_failures == 1
        assert received == []
        assert link.deliveries == 0
        assert link.bytes_carried == 300  # every attempt pays the bytes

    def test_zero_loss_delivers_first_attempt(self):
        spec = FaultSpec(max_retries=12)  # "reliable": protocol on, no faults
        sim, stats, link, received = wired_link(spec)
        link.deliver(note(), DeliveryMode.PUSHED)
        assert received == [1]
        assert stats.delivery_drops == 0
        assert link.deliveries == 1

    def test_duplicate_delivery_is_metered_and_recorded(self):
        spec = FaultSpec(duplicate_rate=1.0)
        sim, stats, link, received = wired_link(spec)
        link.deliver(note(size=100), DeliveryMode.PUSHED)
        assert received == [1, 1]
        assert stats.duplicates_delivered == 1
        assert link.deliveries == 2
        assert link.bytes_carried == 200

    def test_retry_during_outage_parks_until_reconnect(self):
        spec = FaultSpec(loss_rate=1.0, max_retries=10, retry_base=1.0, retry_cap=1.0)
        sim, stats, link, received = wired_link(spec)
        link.deliver(note(size=100), DeliveryMode.PUSHED)  # attempt 1 drops at t=0
        link.set_status(NetworkStatus.DOWN)
        sim.run(until=10.0)  # retries fire into a down link and park
        drops_while_down = stats.delivery_drops
        bytes_while_down = link.bytes_carried
        assert drops_while_down == 1  # only the pre-outage attempt
        assert bytes_while_down == 100
        link.set_status(NetworkStatus.UP)
        sim.run(until=20.0)
        assert stats.delivery_drops > drops_while_down  # parked retry resumed
        assert link.bytes_carried > bytes_while_down

    def test_device_dedups_duplicate_deliveries(self):
        sim = Simulator()
        stats = RunStats()
        plan = FaultPlan.build(
            FaultSpec(duplicate_rate=1.0), seed=0, duration=1000.0
        )
        link = LastHopLink(sim, stats, faults=plan)
        device = ClientDevice(sim, link, stats, faults=plan)
        device.add_topic(TOPIC)
        link.deliver(note(), DeliveryMode.PUSHED)
        assert stats.duplicates_delivered == 1
        assert stats.duplicates_deduped == 1
        assert device.queue_size(TOPIC) == 1  # the copy was discarded


def wired_proxy(policy=None):
    sim = Simulator()
    stats = RunStats()
    proxy = LastHopProxy(sim, policy or PolicyConfig.unified())
    link, device, _ = wire_device(sim, proxy, TOPIC, 0.0, stats, None, None)
    return sim, stats, link, device, proxy


def crashed(proxy, topic=TOPIC):
    return proxy.topic_state(topic).crashed


class TestCrashRestart:
    def test_restart_requeues_retained_unforwarded_events(self):
        sim, stats, link, device, proxy = wired_proxy()
        link.set_status(NetworkStatus.DOWN)
        for event_id in range(1, 6):
            proxy.on_notification(note(event_id=event_id, rank=1.0))
        state = proxy.topic_state(TOPIC)
        queued_before = state.queued_event_count()
        assert queued_before == 5
        proxy.crash_topic(TOPIC)  # immediate restart
        assert not crashed(proxy)
        assert stats.proxy_crashes == 1
        state = proxy.topic_state(TOPIC)
        assert state.queued_event_count() == queued_before
        assert len(state.history) == 5
        link.set_status(NetworkStatus.UP)
        sim.run(until=10.0)
        assert device.queue_size(TOPIC) == 5  # recovery lost nothing

    def test_forwarded_set_survives_no_duplicate_redelivery(self):
        sim, stats, link, device, proxy = wired_proxy()
        proxy.on_notification(note(event_id=1))
        sim.run(until=1.0)
        assert device.queue_size(TOPIC) == 1
        proxy.crash_topic(TOPIC)
        sim.run(until=2.0)
        assert device.queue_size(TOPIC) == 1
        assert stats.duplicates_deduped == 0  # never even re-sent

    def test_downtime_drops_arrivals_and_blanks_reads(self):
        sim, stats, link, device, proxy = wired_proxy()
        proxy.crash_topic(TOPIC, restart_delay=5.0)
        assert crashed(proxy)
        proxy.on_notification(note(event_id=1))
        assert stats.lost_in_crash == 1
        response = proxy.on_read(TOPIC, 4, queue_size=0, client_events=[])
        assert response.sent == ()
        sim.run(until=10.0)
        assert not crashed(proxy)
        assert stats.crash_downtime == pytest.approx(5.0)

    def test_double_crash_raises_but_hook_absorbs(self):
        sim, stats, link, device, proxy = wired_proxy()
        proxy.crash_topic(TOPIC, restart_delay=5.0)
        with pytest.raises(ProxyError):
            proxy.crash_topic(TOPIC)
        proxy.crash_restart_topic(TOPIC, 3.0)  # the fault-plan hook: silently absorbed
        assert stats.proxy_crashes == 1
        sim.run(until=10.0)
        assert not crashed(proxy)

    def test_restart_without_crash_raises(self):
        _sim, _stats, _link, _device, proxy = wired_proxy()
        with pytest.raises(ProxyError):
            proxy.restart_topic(TOPIC)

    def test_negative_restart_delay_rejected(self):
        _sim, _stats, _link, _device, proxy = wired_proxy()
        with pytest.raises(ConfigurationError):
            proxy.crash_topic(TOPIC, restart_delay=-1.0)

    def test_expired_events_not_requeued_on_restart(self):
        sim, stats, link, device, proxy = wired_proxy()
        link.set_status(NetworkStatus.DOWN)
        proxy.on_notification(note(event_id=1, expires_at=2.0))
        proxy.on_notification(note(event_id=2))
        sim.run(until=5.0)  # the expiring event dies at the proxy
        proxy.crash_topic(TOPIC)
        state = proxy.topic_state(TOPIC)
        assert state.queued_event_count() == 1

    def test_downtime_queues_hold_no_expired_events(self):
        """A crash takes the queues down with their expiration timers, so
        nothing sits queued past its deadline while the proxy is down."""
        sim, stats, link, device, proxy = wired_proxy(
            policy=PolicyConfig.online()
        )
        link.set_status(NetworkStatus.DOWN)
        proxy.on_notification(note(event_id=1, expires_at=1.0))
        proxy.on_notification(note(event_id=2))
        proxy.crash_topic(TOPIC, restart_delay=5.0)
        sim.run(until=2.0)
        state = proxy.topic_state(TOPIC)
        assert check_topic_state(state, sim.now) == []
        assert state.queued_event_count() == 0
        sim.run(until=6.0)
        assert not crashed(proxy)
        state = proxy.topic_state(TOPIC)
        assert [m.event_id for m in state.outgoing] == [EventId(2)]


A = TopicId("faults/a")
B = TopicId("faults/b")


class TestTwoBindings:
    """One proxy, two bindings: crashing, restarting or cutting the link
    of binding A leaves binding B running."""

    def wire(self):
        sim = Simulator()
        recorder = TraceRecorder()
        proxy = LastHopProxy(sim, PolicyConfig.on_demand(), recorder=recorder)
        stats = {A: RunStats(), B: RunStats()}
        devices = {}
        for topic in (A, B):
            _link, devices[topic], _ = wire_device(
                sim, proxy, topic, 0.0, stats[topic], None, None
            )
        return sim, proxy, stats, devices, recorder

    def test_crash_and_restart_stay_on_their_binding(self):
        sim, proxy, stats, devices, recorder = self.wire()
        proxy.on_notification(note(1, topic=A))
        proxy.on_notification(note(2, topic=A))
        proxy.on_notification(note(10, rank=1.0, expires_at=3.0, topic=B))
        proxy.on_notification(note(11, rank=2.0, topic=B))
        state_b = proxy.topic_state(B)

        proxy.crash_topic(A, 5.0)
        assert crashed(proxy, A) and not crashed(proxy, B)
        proxy.on_notification(note(3, topic=A))
        assert stats[A].lost_in_crash == 1
        assert proxy.on_read(A, 4, queue_size=0).sent == ()

        # B keeps serving reads and forwarding...
        proxy.on_notification(note(12, rank=0.5, topic=B))
        sent = proxy.on_read(B, 1, queue_size=0).sent
        assert [n.event_id for n in sent] == [EventId(11)]
        assert devices[B].queue_size(B) == 1
        # ...and its expiration timer fires during A's downtime.
        sim.run(until=4.0)
        assert stats[B].expired_at_proxy == 1
        assert [n.event_id for n in state_b.prefetch] == [EventId(12)]

        sim.run(until=6.0)
        assert not crashed(proxy, A)
        state_a = proxy.topic_state(A)
        assert sorted(n.event_id for n in state_a.prefetch) == [1, 2]
        assert stats[A].proxy_crashes == 1
        assert stats[A].crash_downtime == pytest.approx(5.0)
        # The restart rebuilt A alone: B's state is the same object.
        assert proxy.topic_state(B) is state_b
        assert stats[B].proxy_crashes == 0
        assert stats[B].lost_in_crash == 0
        assert [
            (r.kind, r.topic) for r in recorder.records()
            if r.kind in ("crash", "recover")
        ] == [("crash", A), ("recover", A)]

    def test_restart_topic_requeues_only_its_history(self):
        _sim, proxy, _stats, _devices, _recorder = self.wire()
        proxy.on_notification(note(1, topic=A))
        proxy.on_notification(note(10, topic=B))
        proxy.crash_topic(A, 5.0)
        proxy.restart_topic(A)
        assert [n.event_id for n in proxy.topic_state(A).prefetch] == [1]
        assert [n.event_id for n in proxy.topic_state(B).prefetch] == [10]
        with pytest.raises(ProxyError):
            proxy.restart_topic(B)

    def test_network_down_on_one_binding_leaves_the_other_up(self):
        _sim, proxy, _stats, _devices, _recorder = self.wire()
        proxy.on_notification(note(10, topic=B))
        proxy.on_topic_network(A, NetworkStatus.DOWN)
        assert proxy.topic_state(A).network is NetworkStatus.DOWN
        assert proxy.topic_state(B).network is NetworkStatus.UP
        with pytest.raises(ProxyError):
            proxy.on_read(A, 1, queue_size=0)
        sent = proxy.on_read(B, 1, queue_size=0).sent
        assert [n.event_id for n in sent] == [EventId(10)]


class TestRunnerIntegration:
    def _trace(self):
        from tests.conftest import make_config
        from repro.workload.scenario import build_trace

        return build_trace(make_config(days=3.0, outage_fraction=0.4), seed=1)

    def test_lossy_run_completes_with_retries(self):
        trace = self._trace()
        result = run_scenario(
            trace, PolicyConfig.unified(), faults=PRESETS["lossy"]
        )
        stats = result.stats
        assert stats.delivery_drops > 0
        assert stats.delivery_retries > 0
        assert stats.duplicates_deduped == stats.duplicates_delivered

    def test_chaos_run_crashes_and_recovers(self):
        trace = self._trace()
        result = run_scenario(
            trace, PolicyConfig.unified(), faults=PRESETS["chaos"]
        )
        assert result.stats.proxy_crashes > 0
        assert result.stats.crash_downtime > 0.0

    def test_describe_mentions_faults_only_when_present(self):
        trace = self._trace()
        clean = run_scenario(trace, PolicyConfig.unified())
        assert "delivery drops" not in clean.stats.describe()
        lossy = run_scenario(
            trace, PolicyConfig.unified(), faults=PRESETS["lossy"]
        )
        assert "delivery drops" in lossy.stats.describe()
