"""Unit tests for multi-device cache cooperation."""

import pytest

from repro.broker.message import Notification
from repro.device.cooperation import AdHocNetwork, DeviceGroup
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError, DeviceError
from repro.metrics.accounting import RunStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.types import DeliveryMode, EventId, NetworkStatus, TopicId

TOPIC = TopicId("t")


def note(event_id, rank=1.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TOPIC,
        rank=rank,
        published_at=0.0,
        expires_at=expires_at,
    )


def build_group(n_devices=2, availability=1.0, threshold=0.0):
    sim = Simulator()
    stats = RunStats()
    group = DeviceGroup(sim, stats, AdHocNetwork(availability, RandomSource(1)))
    devices = []
    for _ in range(n_devices):
        link = LastHopLink(sim, stats)
        device = ClientDevice(sim, link, stats)
        device.add_topic(TOPIC, threshold)
        group.add_device(device)
        devices.append(device)
    return sim, stats, group, devices


class TestAdHocNetwork:
    def test_always_and_never(self):
        assert AdHocNetwork(1.0).reachable()
        assert not AdHocNetwork(0.0).reachable()

    def test_probability(self):
        net = AdHocNetwork(0.5, RandomSource(2))
        hits = sum(net.reachable() for _ in range(2000))
        assert hits / 2000 == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdHocNetwork(1.5)


class TestGroupReads:
    def test_empty_group_rejected(self):
        sim = Simulator()
        group = DeviceGroup(sim, RunStats())
        with pytest.raises(DeviceError):
            group.reader

    def test_read_borrows_from_peer(self):
        _sim, stats, group, (reader, peer) = build_group()
        peer.receive(note(1, rank=4.0), DeliveryMode.PUSHED)
        outcome = group.perform_read(TOPIC, 3)
        assert outcome.count == 1
        assert outcome.borrowed == 1
        assert outcome.peers_reachable
        assert EventId(1) in stats.read_ids
        assert peer.queue_size(TOPIC) == 0

    def test_reader_cache_preferred_then_peers(self):
        _sim, _stats, group, (reader, peer) = build_group()
        reader.receive(note(1, rank=2.0), DeliveryMode.PUSHED)
        peer.receive(note(2, rank=5.0), DeliveryMode.PUSHED)
        outcome = group.perform_read(TOPIC, 2)
        assert {m.event_id for m in outcome.consumed} == {1, 2}
        assert outcome.borrowed == 1

    def test_unreachable_peers_not_consulted(self):
        _sim, _stats, group, (reader, peer) = build_group(availability=0.0)
        peer.receive(note(1, rank=4.0), DeliveryMode.PUSHED)
        outcome = group.perform_read(TOPIC, 3)
        assert outcome.count == 0
        assert not outcome.peers_reachable
        assert peer.queue_size(TOPIC) == 1

    def test_duplicate_across_peers_read_once(self):
        _sim, stats, group, devices = build_group(n_devices=3)
        _reader, peer_a, peer_b = devices
        peer_a.receive(note(1, rank=4.0), DeliveryMode.PUSHED)
        peer_b.receive(note(1, rank=4.0), DeliveryMode.PUSHED)
        peer_b.receive(note(2, rank=3.0), DeliveryMode.PUSHED)
        outcome = group.perform_read(TOPIC, 3)
        assert outcome.count == 2
        assert len(stats.read_ids) == 2

    def test_threshold_applies_to_borrowed(self):
        _sim, _stats, group, (reader, peer) = build_group(threshold=3.0)
        peer.receive(note(1, rank=2.0), DeliveryMode.PUSHED)
        peer.receive(note(2, rank=4.0), DeliveryMode.PUSHED)
        outcome = group.perform_read(TOPIC, 5)
        assert [m.event_id for m in outcome.consumed] == [2]

    def test_expired_peer_messages_skipped(self):
        sim, _stats, group, (reader, peer) = build_group()
        peer.receive(note(1, rank=4.0, expires_at=10.0), DeliveryMode.PUSHED)
        sim.run(until=20.0)
        outcome = group.perform_read(TOPIC, 5)
        assert outcome.count == 0

    def test_group_queue_size(self):
        _sim, _stats, group, (reader, peer) = build_group()
        reader.receive(note(1), DeliveryMode.PUSHED)
        peer.receive(note(2), DeliveryMode.PUSHED)
        assert group.queue_size(TOPIC) == 2

    def test_borrowed_total_accumulates(self):
        _sim, _stats, group, (reader, peer) = build_group()
        peer.receive(note(1, rank=4.0), DeliveryMode.PUSHED)
        peer.receive(note(2, rank=3.0), DeliveryMode.PUSHED)
        group.perform_read(TOPIC, 1)
        group.perform_read(TOPIC, 1)
        assert group.borrowed_total == 2


class TestCooperativeRunner:
    def test_cooperation_reduces_loss_under_heavy_outage(self):
        import dataclasses

        from repro.experiments.cooperation import (
            CooperationConfig,
            run_cooperative_paired,
        )
        from repro.experiments.runner import run_paired
        from repro.proxy.policies import PolicyConfig
        from repro.units import DAY
        from repro.workload.outages import OutageConfig
        from repro.workload.scenario import build_trace

        from tests.conftest import make_config

        config = dataclasses.replace(
            make_config(days=60.0),
            outages=OutageConfig(
                downtime_fraction=0.9, outages_per_day=1.0, duration_sigma=1.0
            ),
        )
        trace = build_trace(config, seed=3)
        alone = run_paired(trace, PolicyConfig.unified())
        together = run_cooperative_paired(
            trace,
            PolicyConfig.unified(),
            CooperationConfig(n_peers=1, peer_outage_fraction=0.5),
        )
        assert together.metrics.loss < alone.metrics.loss
        assert together.cooperative.borrowed > 0
