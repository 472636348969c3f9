"""Tests for the parallel grid execution engine.

The load-bearing property is determinism: for any ``jobs`` value the
grid must come back in task order with bit-identical floats, so every
figure's output is independent of how it was scheduled.
"""

import pytest

from repro.experiments.figures import fig1_overflow_waste, fig3_buffer_prefetch
from repro.experiments.parallel import (
    MAX_AUTO_CHUNK,
    FleetWorkloadCache,
    parallel_map,
    resolve_chunksize,
    resolve_jobs,
)
from repro.fleet import sweep as fleet_sweep
from repro.fleet import workload as fleet_workload
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import SweepStore
from repro.fleet.sweep import FleetSweepConfig, parse_policy_token, run_fleet_sweep
from repro.fleet.tune import TuneConfig, TuneParam, run_fleet_tune
from repro.units import DAY


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


def _pair(a, b):
    return (a, b)


class TestResolveJobs:
    def test_explicit_value(self):
        assert resolve_jobs(3, tasks=10) == 3

    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_jobs(0, tasks=1000) >= 1
        assert resolve_jobs(None, tasks=1000) >= 1

    def test_clamped_to_task_count(self):
        assert resolve_jobs(8, tasks=2) == 2
        assert resolve_jobs(8, tasks=0) == 1


class TestResolveChunksize:
    def test_explicit_value_clamped_to_one(self):
        assert resolve_chunksize(5, tasks=100, workers=4) == 5
        assert resolve_chunksize(0, tasks=100, workers=4) == 1

    def test_single_worker_streams_per_task(self):
        assert resolve_chunksize(None, tasks=1000, workers=1) == 1

    def test_auto_targets_four_chunks_per_worker(self):
        assert resolve_chunksize(None, tasks=64, workers=4) == 4

    def test_auto_capped(self):
        assert resolve_chunksize(None, tasks=10**6, workers=2) == MAX_AUTO_CHUNK

    def test_auto_never_zero_for_tiny_grids(self):
        assert resolve_chunksize(None, tasks=2, workers=8) == 1


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, [(3,), (1,), (2,)], jobs=1) == [9, 1, 4]

    def test_workers_preserve_order(self):
        tasks = [(i,) for i in range(20)]
        assert parallel_map(_square, tasks, jobs=4) == [i * i for i in range(20)]

    def test_bare_items_wrapped_as_single_argument(self):
        assert parallel_map(_square, [2, 3], jobs=1) == [4, 9]

    def test_multi_argument_tasks(self):
        assert parallel_map(_pair, [(1, 2), (3, 4)], jobs=2) == [(1, 2), (3, 4)]

    def test_empty_grid(self):
        assert parallel_map(_square, [], jobs=4) == []

    @pytest.mark.parametrize("chunksize", [1, 3, 7, 50])
    def test_chunked_results_in_task_order(self, chunksize):
        tasks = [(i,) for i in range(20)]
        results = parallel_map(_square, tasks, jobs=2, chunksize=chunksize)
        assert results == [i * i for i in range(20)]


class TestFigureEquivalence:
    def test_fig1_table_identical_for_any_jobs(self):
        config = fig1_overflow_waste.Fig1Config(
            duration=2.0 * DAY,
            max_values=(2, 8),
            user_frequencies=(1.0, 4.0),
        )
        serial = fig1_overflow_waste.run(config, jobs=1)
        parallel = fig1_overflow_waste.run(config, jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.headers == serial.headers

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunksize", [1, 4])
    def test_fig3_grid_identical_for_any_jobs_and_chunksize(self, jobs, chunksize):
        # fig3 is the baseline-sharing figure: every prefetch limit pairs
        # against the same (scenario, seed) baseline, so how cells are
        # chunked onto workers decides which LRU entries get reused —
        # and must not decide a single float.
        config = fig3_buffer_prefetch.Fig3Config(
            duration=2.0 * DAY,
            prefetch_limits=(1, 8, 64),
            outage_fractions=(0.1, 0.5),
        )
        tasks = [
            (config, outage_fraction, limit)
            for limit in config.prefetch_limits
            for outage_fraction in config.outage_fractions
        ]
        reference = [fig3_buffer_prefetch.measure_point(*task) for task in tasks]
        assert (
            parallel_map(
                fig3_buffer_prefetch.measure_point,
                tasks,
                jobs=jobs,
                chunksize=chunksize,
            )
            == reference
        )


class TestFleetWorkloadCache:
    def test_hits_builds_and_lru_eviction(self):
        a, b, c = (FleetScenarioConfig(devices=4, seed=seed) for seed in range(3))
        cache = FleetWorkloadCache(maxsize=2)
        first_a = cache.get(a)
        cache.get(b)
        assert cache.get(a) is first_a        # hit; a is now most recent
        cache.get(c)                          # evicts b, the least recent
        assert cache.get(a) is first_a
        assert (cache.builds, cache.hits) == (3, 2)
        cache.get(b)                          # rebuilt after eviction
        assert (cache.builds, cache.hits) == (4, 2)
        assert cache.get(b).devices == 4

    @pytest.mark.parametrize("maxsize", [0, -1])
    def test_rejects_empty_cache(self, maxsize):
        with pytest.raises(ValueError, match="maxsize"):
            FleetWorkloadCache(maxsize=maxsize)


class TestSharedWorkloadBuilds:
    """Fleet workload builds per campaign, counted not timed.

    The vectorized build is the one per-cell cost that does not depend
    on the policy. A tune campaign must build each seed's workload once
    however many candidates it evaluates, and a sweep once per
    ``(scenario, seed)`` group however many policies share it.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []
        build = fleet_workload.build_fleet_workload

        def counting_build(config):
            seen.append(config)
            return build(config)

        monkeypatch.setattr(fleet_workload, "build_fleet_workload", counting_build)
        monkeypatch.setattr(fleet_sweep, "build_fleet_workload", counting_build)
        return seen

    def test_tune_builds_each_seed_once(self, builds, tmp_path):
        config = TuneConfig(
            base=FleetScenarioConfig(devices=8),
            space=(
                TuneParam("ma_window", lo=2, hi=16, integer=True),
                TuneParam("delay", choices=(0.0, 60.0)),
            ),
            preset="unified",
            seeds=(0, 1),
            screen_seeds=1,
            samples=3,
            survivors=2,
            refine_rounds=1,
        )
        with SweepStore(tmp_path / "tune.sqlite") as store:
            outcome = run_fleet_tune(config, store)
        assert sorted(scenario.seed for scenario in builds) == [0, 1]
        assert outcome.computed > 2 * len(builds)

    def test_sweep_builds_each_group_once(self, builds, tmp_path):
        config = FleetSweepConfig(
            base=FleetScenarioConfig(devices=12),
            policies=tuple(
                parse_policy_token(token)
                for token in ("online", "unified", "buffer:8")
            ),
            seeds=(0, 1),
            axes=(("devices", (12, 24)),),
        )
        with SweepStore(tmp_path / "sweep.sqlite") as store:
            outcome = run_fleet_sweep(config, store)
        assert outcome.computed == 12
        assert len(builds) == len(set(builds)) == 4
