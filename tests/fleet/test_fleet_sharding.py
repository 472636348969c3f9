"""Shard invariance: fleet results are a pure function of the config.

``(shards, jobs)`` are throughput knobs only — the accumulator's integer
metrics must be bit-identical under any partitioning, and the single
float sum must agree up to reassociation. The test sweeps an uneven
shard count (7 over 30 devices) on purpose: equal splits can hide
off-by-one boundary errors.
"""

import glob
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import run_fleet_policy_batch
from repro.faults import PRESETS, FaultSpec
from repro.fleet import FleetScenarioConfig, build_fleet_workload, run_fleet
from repro.fleet.runner import _execute_shard, _execute_shard_from_shm
from repro.fleet.workload import FleetWorkload, shard_bounds
from repro.proxy.policies import PolicyConfig
from repro.sim.trace_shm import ShmTraceSet
from repro.units import DAY


def _signatures_match(reference, candidate):
    ref, cand = dict(reference), dict(candidate)
    ref_float = ref.pop("read_delay_sum")
    cand_float = cand.pop("read_delay_sum")
    assert cand == ref
    assert math.isclose(cand_float, ref_float, rel_tol=1e-9, abs_tol=1e-9)


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_metrics_invariant_to_partitioning(self, shards, jobs):
        config = FleetScenarioConfig(devices=30, duration=DAY, seed=13)
        workload = build_fleet_workload(config)
        reference = run_fleet(
            config, PolicyConfig.unified(), workload=workload
        ).accumulator.signature()
        result = run_fleet(
            config,
            PolicyConfig.unified(),
            shards=shards,
            jobs=jobs,
            workload=workload,
        )
        assert result.shards == shards
        _signatures_match(reference, result.accumulator.signature())

    def test_invariant_under_faults(self):
        """Per-device fault plans hash on the device id, not the shard."""
        config = FleetScenarioConfig(devices=20, duration=DAY, seed=4)
        kwargs = dict(policy=PolicyConfig.unified(), faults=PRESETS["lossy"])
        reference = run_fleet(config, **kwargs).accumulator.signature()
        sharded = run_fleet(config, shards=5, **kwargs).accumulator.signature()
        _signatures_match(reference, sharded)


class TestShardBounds:
    def test_covers_all_devices_contiguously(self):
        bounds = shard_bounds(30, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 30
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_more_shards_than_devices_drops_empties(self):
        bounds = shard_bounds(3, 8)
        assert len(bounds) == 3
        assert all(hi > lo for lo, hi in bounds)

    def test_single_shard_is_whole_fleet(self):
        assert shard_bounds(100, 1) == [(0, 100)]


class TestShardViews:
    def test_shard_preserves_global_numbering(self):
        config = FleetScenarioConfig(devices=10, duration=DAY, seed=6)
        workload = build_fleet_workload(config)
        piece = workload.shard(4, 7)
        assert piece.lo == 4
        assert piece.devices == 3
        # Device 5 of the shard view is device 5 of the full fleet.
        full = workload.device_trace(5)
        view = piece.device_trace(1)
        assert full.metadata == view.metadata
        assert len(full.arrivals) == len(view.arrivals)

    def test_shm_roundtrip_preserves_columns(self):
        """to_trace/from_trace is the worker handoff; it must be lossless."""
        config = FleetScenarioConfig(devices=9, duration=DAY, seed=8)
        workload = build_fleet_workload(config)
        piece = workload.shard(2, 8)
        rebuilt = piece.__class__.from_trace(config, piece.to_trace())
        assert rebuilt.lo == piece.lo
        assert rebuilt.devices == piece.devices
        assert rebuilt.limits.tolist() == piece.limits.tolist()
        assert rebuilt.arrival_counts.tolist() == piece.arrival_counts.tolist()
        assert rebuilt.arrivals.times.tolist() == piece.arrivals.times.tolist()
        assert rebuilt.outages.starts.tolist() == piece.outages.starts.tolist()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("limits", [8, 8]),
            ("read_counts", None),
            ("arrival_counts", [0, 0, 0, 0, 0, 0]),
        ],
    )
    def test_from_trace_rejects_inconsistent_metadata(self, field, value):
        config = FleetScenarioConfig(devices=9, duration=DAY, seed=8)
        packed = build_fleet_workload(config).shard(2, 8).to_trace()
        packed.metadata[field] = value
        with pytest.raises(ConfigurationError, match="packed fleet shard"):
            FleetWorkload.from_trace(config, packed)

    def test_attached_shard_matches_direct(self):
        config = FleetScenarioConfig(devices=8, duration=DAY, seed=3)
        piece = build_fleet_workload(config).shard(2, 6)
        direct = _execute_shard(piece, PolicyConfig.unified())
        with ShmTraceSet() as published:
            name = published.publish("piece", piece.to_trace())
            attached = _execute_shard_from_shm(
                name, config, PolicyConfig.unified(), None
            )
        assert attached.signature() == direct.signature()

    def test_missing_segment_is_typed_error(self):
        config = FleetScenarioConfig(devices=8, duration=DAY, seed=3)
        with pytest.raises(ConfigurationError, match="repro-trace-gone"):
            _execute_shard_from_shm(
                "repro-trace-gone", config, PolicyConfig.unified(), None
            )


def _segments():
    return set(glob.glob("/dev/shm/repro-trace-*"))


class TestPooledSegments:
    """No shared-memory segment outlives a pooled campaign."""

    WORKLOAD = dict(devices=12, duration=DAY, seed=5)

    def test_none_left_after_success(self):
        workload = build_fleet_workload(FleetScenarioConfig(**self.WORKLOAD))
        before = _segments()
        run_fleet_policy_batch(
            workload, [PolicyConfig.unified()], shards=2, jobs=2
        )
        assert _segments() == before

    def test_none_left_when_every_worker_raises(self):
        # The batch hands the spec to its workers unchecked; each
        # worker's shard validates it and raises.
        workload = build_fleet_workload(FleetScenarioConfig(**self.WORKLOAD))
        before = _segments()
        with pytest.raises(ConfigurationError, match="loss_rate"):
            run_fleet_policy_batch(
                workload, [PolicyConfig.unified()], shards=2, jobs=2,
                fault_spec=FaultSpec(loss_rate=2.0),
            )
        assert _segments() == before
