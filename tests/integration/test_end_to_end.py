"""End-to-end integration: publication → proxy → link → device, with
volume limits applied at every stage.

The routing substrate is a black box (paper §2): a publication reaches
the proxy as it is published.
"""

import dataclasses
import itertools

from repro.broker.message import Notification
from repro.experiments.runner import wire_device
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import EventId, NetworkStatus, TopicId

TOPIC = TopicId("news/slashdot")


class World:
    """One proxy serving one mobile device."""

    def __init__(self, policy, threshold=0.0):
        self.sim = Simulator()
        self.stats = RunStats()
        self._event_ids = itertools.count(1)

        self.proxy = LastHopProxy(self.sim, policy)
        self.link, self.device, _ = wire_device(
            self.sim, self.proxy, TOPIC, threshold, self.stats, None, None
        )

    def publish(self, rank, expires_in=None, payload=None):
        now = self.sim.now
        notification = Notification(
            event_id=EventId(next(self._event_ids)),
            topic=TOPIC,
            rank=rank,
            published_at=now,
            expires_at=None if expires_in is None else now + expires_in,
            payload=payload,
        )
        self.proxy.on_notification(notification)
        return notification

    def change_rank(self, published, new_rank):
        self.proxy.on_notification(dataclasses.replace(published, rank=new_rank))


class TestPipeline:
    def test_publication_reaches_device_through_all_layers(self):
        world = World(PolicyConfig.online())
        world.publish(rank=4.0, payload="story")
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 1
        unread = world.device.unread(TOPIC)
        assert unread[0].payload == "story"

    def test_threshold_enforced_end_to_end(self):
        world = World(PolicyConfig.online(), threshold=4.5)
        world.publish(rank=4.0)   # filtered at the proxy
        world.publish(rank=4.8)
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 1

    def test_on_demand_read_pulls_best_story(self):
        world = World(PolicyConfig.on_demand())
        for rank in (1.0, 4.9, 3.0):
            world.publish(rank=rank)
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 0
        outcome = world.device.perform_read(TOPIC, 1)
        assert outcome.count == 1
        assert outcome.consumed[0].rank == 4.9

    def test_rank_retraction_end_to_end(self):
        world = World(PolicyConfig.buffer(prefetch_limit=8), threshold=2.0)
        published = world.publish(rank=4.0)
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 1
        world.change_rank(published, 0.5)
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 0
        assert world.stats.retracted_on_device == 1

    def test_outage_buffers_then_flushes(self):
        world = World(PolicyConfig.online())
        world.link.set_status(NetworkStatus.DOWN)
        world.publish(rank=1.0)
        world.publish(rank=2.0)
        world.sim.run()
        assert world.device.queue_size(TOPIC) == 0
        world.link.set_status(NetworkStatus.UP)
        assert world.device.queue_size(TOPIC) == 2

    def test_expired_story_never_reaches_reader(self):
        world = World(PolicyConfig.on_demand())
        world.publish(rank=4.0, expires_in=10.0)
        world.sim.run()
        world.sim.schedule(20.0, lambda: None)
        world.sim.run()
        outcome = world.device.perform_read(TOPIC, 5)
        assert outcome.count == 0


class TestSlashdotVacationScenario:
    def test_max_and_threshold_in_concert(self):
        """Paper §2.2: 'request the highest-ranked stories above
        threshold 4.5, but not more than 30 at a time' after a month away."""
        world = World(PolicyConfig.on_demand(), threshold=4.5)
        # A month of stories: 300, of which ~10 % clear the threshold.
        for i in range(300):
            world.publish(rank=(i % 50) / 10.0)
        world.sim.run()
        outcome = world.device.perform_read(TOPIC, 30)
        assert outcome.count == 30
        assert all(m.rank >= 4.5 for m in outcome.consumed)
        ranks = [m.rank for m in outcome.consumed]
        assert ranks == sorted(ranks, reverse=True)
