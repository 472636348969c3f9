"""Unit tests for the last-hop link."""

import pytest

from repro.broker.message import Notification
from repro.device.link import RETRACTION_SIZE_BYTES, LastHopLink
from repro.errors import ConfigurationError, ProxyError
from repro.faults import FaultPlan, FaultSpec
from repro.sim.engine import Simulator
from repro.types import DeliveryMode, EventId, NetworkStatus, TopicId


class RecordingDevice:
    def __init__(self):
        self.received = []
        self.retractions = []

    def receive(self, notification, mode):
        self.received.append((notification, mode))

    def retract(self, event_id):
        self.retractions.append(event_id)


def note(event_id=1, size=512):
    return Notification(
        event_id=EventId(event_id),
        topic=TopicId("t"),
        rank=1.0,
        published_at=0.0,
        size_bytes=size,
    )


@pytest.fixture
def wired():
    sim = Simulator()
    link = LastHopLink(sim)
    device = RecordingDevice()
    link.attach_device(device)
    return sim, link, device


class TestDelivery:
    def test_synchronous_delivery_at_zero_latency(self, wired):
        _sim, link, device = wired
        link.deliver(note(), DeliveryMode.PUSHED)
        assert len(device.received) == 1

    def test_fault_jitter_defers_delivery_and_duplicate(self):
        sim = Simulator()
        plan = FaultPlan(
            FaultSpec(loss_rate=0.0, duplicate_rate=1.0, jitter_mean=0.5), seed=3
        )
        link = LastHopLink(sim, faults=plan)
        landings = []
        device = RecordingDevice()
        device.receive = lambda notification, mode: landings.append(
            (sim.now, notification.event_id, mode)
        )
        link.attach_device(device)
        link.deliver(note(1), DeliveryMode.PUSHED)
        assert landings == []
        jitter = plan.delivery_jitter(EventId(1), 1)
        assert jitter > 0
        sim.run()
        assert landings == [(jitter, EventId(1), DeliveryMode.PUSHED)] * 2

    def test_deliver_while_down_raises(self, wired):
        _sim, link, _device = wired
        link.set_status(NetworkStatus.DOWN)
        with pytest.raises(ProxyError):
            link.deliver(note(), DeliveryMode.PUSHED)

    def test_deliver_without_device_raises(self):
        link = LastHopLink(Simulator())
        with pytest.raises(ProxyError):
            link.deliver(note(), DeliveryMode.PUSHED)

    def test_metering(self, wired):
        _sim, link, _device = wired
        link.deliver(note(1, size=100), DeliveryMode.PUSHED)
        link.deliver(note(2, size=200), DeliveryMode.PULLED)
        link.retract(EventId(1))
        assert link.deliveries == 2
        assert link.retractions == 1
        assert link.bytes_carried == 300 + RETRACTION_SIZE_BYTES


class TestStatus:
    def test_listeners_fire_on_transition_only(self, wired):
        _sim, link, _device = wired
        observed = []
        link.add_status_listener(observed.append)
        link.set_status(NetworkStatus.UP)  # no change
        link.set_status(NetworkStatus.DOWN)
        link.set_status(NetworkStatus.DOWN)  # no change
        link.set_status(NetworkStatus.UP)
        assert observed == [NetworkStatus.DOWN, NetworkStatus.UP]

    def test_up_property(self, wired):
        _sim, link, _device = wired
        assert link.up
        link.set_status(NetworkStatus.DOWN)
        assert not link.up

    def test_retraction_while_down_raises(self, wired):
        _sim, link, _device = wired
        link.set_status(NetworkStatus.DOWN)
        with pytest.raises(ProxyError):
            link.retract(EventId(1))


class TestAttachment:
    def test_attaching_second_device_raises(self, wired):
        _sim, link, _device = wired
        with pytest.raises(ConfigurationError, match="already attached"):
            link.attach_device(RecordingDevice())

    def test_reattaching_same_device_is_idempotent(self, wired):
        _sim, link, device = wired
        link.attach_device(device)  # no-op, no error
        link.deliver(note(), DeliveryMode.PUSHED)
        assert len(device.received) == 1
