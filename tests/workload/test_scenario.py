"""Unit tests for scenario configuration and trace building."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.units import DAY, YEAR
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import (
    ScenarioConfig,
    build_trace,
    build_trace_cached,
    clear_trace_cache,
)

from tests.conftest import make_config


class TestDefaults:
    def test_defaults_match_paper_baseline(self):
        config = ScenarioConfig()
        assert config.duration == YEAR
        assert config.event_frequency == 32.0
        assert config.user_frequency == 2.0
        assert config.max_per_read == 8
        assert config.threshold == 0.0

    def test_with_changes_returns_modified_copy(self):
        config = ScenarioConfig()
        changed = config.with_changes(threshold=2.0)
        assert changed.threshold == 2.0
        assert config.threshold == 0.0


class TestBuildTrace:
    def test_trace_is_validated_and_complete(self):
        trace = build_trace(make_config(days=20.0, outage_fraction=0.3), seed=1)
        assert trace.duration == 20 * DAY
        assert len(trace.arrivals) > 300
        assert len(trace.reads) > 10
        assert trace.outages

    def test_seed_override(self):
        config = make_config(days=10.0)
        a = build_trace(config, seed=1)
        b = build_trace(config, seed=1)
        c = build_trace(config, seed=2)
        assert a.arrivals == b.arrivals
        assert a.arrivals != c.arrivals

    def test_config_seed_used_when_no_override(self):
        config = make_config(days=10.0, seed=9)
        assert build_trace(config).arrivals == build_trace(config, seed=9).arrivals

    def test_cached_build_returns_same_object_and_same_content(self):
        clear_trace_cache()
        config = make_config(days=10.0)
        first = build_trace_cached(config, seed=4)
        second = build_trace_cached(config, seed=4)
        assert second is first  # cache hit
        fresh = build_trace(config, seed=4)
        assert first.arrivals == fresh.arrivals
        assert first.reads == fresh.reads
        assert first.outages == fresh.outages
        clear_trace_cache()

    def test_cache_distinguishes_config_and_seed(self):
        clear_trace_cache()
        config = make_config(days=10.0)
        assert build_trace_cached(config, seed=1) is not build_trace_cached(
            config, seed=2
        )
        other = dataclasses.replace(config, threshold=2.0)
        assert build_trace_cached(config, seed=1) is not build_trace_cached(
            other, seed=1
        )
        clear_trace_cache()

    def test_build_trace_cached_shares_trace_across_fault_specs(self):
        """Faults act at run time, so every spec shares one cached trace;
        the baseline LRU keeps one result per spec, each equal to a
        direct on-line run."""
        from repro.experiments.runner import (
            clear_baseline_cache,
            run_baseline,
            run_scenario,
        )
        from repro.faults import FaultSpec
        from repro.proxy.policies import PolicyConfig

        clear_trace_cache()
        clear_baseline_cache()
        config = make_config(days=5.0, outage_fraction=0.3)
        lossy_spec = FaultSpec(loss_rate=0.2)
        try:
            clean = build_trace_cached(config, seed=0)
            clean_base = run_baseline(clean)
            lossy = build_trace_cached(config, seed=0)
            lossy_base = run_baseline(lossy, faults=lossy_spec)
        finally:
            clear_trace_cache()
            clear_baseline_cache()
        assert lossy is clean
        assert lossy_base is not clean_base
        direct = {
            spec: run_scenario(clean, PolicyConfig.online(), faults=spec).stats
            for spec in (FaultSpec.none(), lossy_spec)
        }
        assert clean_base.stats == direct[FaultSpec.none()]
        assert lossy_base.stats == direct[lossy_spec]
        assert lossy_base.stats != clean_base.stats

    def test_metadata_records_parameters(self):
        trace = build_trace(make_config(days=10.0, outage_fraction=0.5), seed=3)
        assert trace.metadata["event_frequency"] == 32.0
        assert trace.metadata["user_frequency"] == 2.0
        assert trace.metadata["max_per_read"] == 8
        assert trace.metadata["target_downtime"] == 0.5
        assert trace.metadata["achieved_downtime"] == pytest.approx(0.5, abs=0.1)

    def test_rank_changes_included(self):
        config = dataclasses.replace(
            make_config(days=20.0),
            rank_changes=RankChangeConfig(drop_fraction=0.2),
        )
        trace = build_trace(config, seed=4)
        assert trace.rank_changes

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            build_trace(ScenarioConfig(duration=-1.0))
        with pytest.raises(ConfigurationError):
            build_trace(ScenarioConfig(threshold=-0.5))

    def test_independent_generator_streams(self):
        """Changing the outage config must not perturb arrivals/reads."""
        base = make_config(days=15.0)
        with_outage = dataclasses.replace(
            base, outages=OutageConfig(downtime_fraction=0.5)
        )
        a = build_trace(base, seed=5)
        b = build_trace(with_outage, seed=5)
        assert a.arrivals == b.arrivals
        assert a.reads == b.reads
        assert a.outages != b.outages

    def test_independent_streams_across_read_config(self):
        base = make_config(days=15.0)
        more_reads = dataclasses.replace(
            base, reads=ReadConfig(reads_per_day=8.0, read_count=4)
        )
        a = build_trace(base, seed=5)
        b = build_trace(more_reads, seed=5)
        assert a.arrivals == b.arrivals

    def test_arrival_volume_tracks_event_frequency(self):
        low = build_trace(make_config(days=30.0, events_per_day=8.0), seed=6)
        high = build_trace(make_config(days=30.0, events_per_day=64.0), seed=6)
        assert len(high.arrivals) > 5 * len(low.arrivals)
