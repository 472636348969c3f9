"""Integration tests: one proxy/device pair serving several topics.

The paper's evaluation models a single topic; the implementation
supports many per device, each with its own queues, thresholds, type,
and schedule. These tests pin the isolation properties.
"""

from functools import partial

import pytest

from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.proxy.schedule import DeliverySchedule
from repro.sim.engine import Simulator
from repro.types import EventId, NetworkStatus, TopicId, TopicType

NEWS = TopicId("news")
TRAFFIC = TopicId("traffic")


@pytest.fixture
def world():
    sim = Simulator()
    stats = RunStats()
    link = LastHopLink(sim, stats)
    device = ClientDevice(sim, link, stats)
    proxy = LastHopProxy(sim, PolicyConfig.unified())
    device.attach_proxy(proxy)

    # One binding per topic, both over the device's one link.
    device.add_topic(NEWS, threshold=0.0)
    proxy.add_binding(
        NEWS, transport=link, stats=stats, topic_type=TopicType.ON_DEMAND
    )
    device.add_topic(TRAFFIC, threshold=2.0)
    proxy.add_binding(
        TRAFFIC,
        transport=link,
        stats=stats,
        topic_type=TopicType.ONLINE,
        rank_threshold=2.0,
        schedule=DeliverySchedule(urgent_threshold=4.5),
    )
    for topic in (NEWS, TRAFFIC):
        link.add_status_listener(partial(proxy.on_topic_network, topic))
    return sim, stats, link, device, proxy


def publish(proxy, topic, event_id, rank, now=0.0):
    proxy.on_notification(
        Notification(event_id=EventId(event_id), topic=topic, rank=rank,
                     published_at=now)
    )


class TestIsolation:
    def test_topics_have_independent_queues(self, world):
        _sim, _stats, _link, device, proxy = world
        publish(proxy, NEWS, 1, 3.0)
        publish(proxy, TRAFFIC, 2, 3.0)
        # NEWS is on-demand-prefetched (limit 16 initially): pushed.
        # TRAFFIC is on-line: pushed immediately too.
        assert device.queue_size(NEWS) == 1
        assert device.queue_size(TRAFFIC) == 1

    def test_thresholds_applied_per_topic(self, world):
        _sim, _stats, _link, device, proxy = world
        publish(proxy, NEWS, 1, 1.0)      # below TRAFFIC's threshold, fine for NEWS
        publish(proxy, TRAFFIC, 2, 1.0)   # filtered
        assert device.queue_size(NEWS) == 1
        assert device.queue_size(TRAFFIC) == 0

    def test_reads_are_per_topic(self, world):
        _sim, _stats, _link, device, proxy = world
        publish(proxy, NEWS, 1, 3.0)
        publish(proxy, TRAFFIC, 2, 3.0)
        outcome = device.perform_read(NEWS, 5)
        assert [m.event_id for m in outcome.consumed] == [1]
        assert device.queue_size(TRAFFIC) == 1

    def test_network_transition_affects_all_topics(self, world):
        _sim, stats, link, device, proxy = world
        link.set_status(NetworkStatus.DOWN)
        publish(proxy, NEWS, 1, 3.0)
        publish(proxy, TRAFFIC, 2, 3.0)
        assert device.queue_size(NEWS) == 0
        assert device.queue_size(TRAFFIC) == 0
        link.set_status(NetworkStatus.UP)
        assert device.queue_size(NEWS) == 1
        assert device.queue_size(TRAFFIC) == 1

    def test_cross_topic_event_id_collision_detected(self, world):
        """Event ids are allocated globally by the routing substrate; a
        collision across topics is a wiring bug and must fail loudly
        rather than silently corrupt the device's expiry bookkeeping."""
        from repro.errors import DeviceError

        _sim, _stats, _link, device, proxy = world
        publish(proxy, NEWS, 7, 3.0)
        with pytest.raises(DeviceError, match="already tracked"):
            publish(proxy, TRAFFIC, 7, 3.0)

    def test_adaptive_knobs_are_per_topic(self, world):
        sim, _stats, _link, device, proxy = world
        device.perform_read(NEWS, 4)
        sim.run(until=100.0)
        device.perform_read(NEWS, 4)
        news_state = proxy.topic_state(NEWS)
        traffic_state = proxy.topic_state(TRAFFIC)
        assert news_state.mean_read_size == pytest.approx(4.0)
        assert traffic_state.mean_read_size is None

    def test_reconnect_report_covers_all_topics(self, world):
        _sim, _stats, link, device, proxy = world
        publish(proxy, NEWS, 1, 3.0)
        publish(proxy, TRAFFIC, 2, 3.0)
        proxy.topic_state(NEWS).queue_size = 99
        proxy.topic_state(TRAFFIC).queue_size = 99
        link.set_status(NetworkStatus.DOWN)
        link.set_status(NetworkStatus.UP)
        assert proxy.topic_state(NEWS).queue_size == 1
        assert proxy.topic_state(TRAFFIC).queue_size == 1
