"""Unit tests for the scenario runner and paired execution."""

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    clear_baseline_cache,
    run_baseline,
    run_paired,
    run_paired_config,
    run_scenario,
)
from repro.faults import PRESETS, FaultSpec
from repro.metrics.analytic import expected_overflow_waste
from repro.metrics.waste_loss import compute_waste
from repro.proxy.policies import PolicyConfig
from repro.proxy.schedule import DeliverySchedule, QuietHours

from tests.conftest import make_config
from repro.workload.scenario import build_trace


class TestSingleRuns:
    def test_online_forwards_everything_when_network_perfect(self, overflow_trace):
        result = run_scenario(overflow_trace, PolicyConfig.online())
        assert result.stats.forwarded == result.stats.accepted
        assert result.stats.accepted == len(overflow_trace.arrivals)

    def test_on_demand_has_zero_waste(self, outage_trace):
        result = run_scenario(outage_trace, PolicyConfig.on_demand())
        assert compute_waste(result.stats) == 0.0

    def test_reads_executed(self, overflow_trace):
        result = run_scenario(overflow_trace, PolicyConfig.online())
        assert result.stats.reads == len(overflow_trace.reads)

    def test_threshold_filters_at_proxy(self):
        trace = build_trace(make_config(days=20.0), seed=3)
        result = run_scenario(trace, PolicyConfig.online(), threshold=2.5)
        assert result.stats.filtered > 0
        assert result.stats.accepted + result.stats.filtered == result.stats.arrivals
        # Uniform ranks on [0, 5): half the arrivals pass threshold 2.5.
        assert result.stats.accepted / result.stats.arrivals == pytest.approx(
            0.5, abs=0.05
        )

    def test_deterministic_replay(self, outage_trace):
        a = run_scenario(outage_trace, PolicyConfig.unified())
        b = run_scenario(outage_trace, PolicyConfig.unified())
        assert a.stats.read_ids == b.stats.read_ids
        assert a.stats.forwarded_ids == b.stats.forwarded_ids
        assert a.events_processed == b.events_processed


class TestBaselineCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_baseline_cache()
        yield
        clear_baseline_cache()

    def test_repeat_baseline_is_cached(self, outage_trace):
        first = run_baseline(outage_trace)
        second = run_baseline(outage_trace)
        assert second is first

    def test_distinct_thresholds_are_distinct_entries(self, outage_trace):
        assert run_baseline(outage_trace) is not run_baseline(
            outage_trace, threshold=2.5
        )

    def test_distinct_kwargs_are_distinct_entries(self, outage_trace):
        assert run_baseline(outage_trace) is not run_baseline(
            outage_trace, schedule=DeliverySchedule(max_pushes_per_day=4)
        )

    def test_equal_trace_different_identity_not_shared(self):
        config = make_config(days=5.0)
        first = run_baseline(build_trace(config, seed=0))
        second = run_baseline(build_trace(config, seed=0))
        assert first is not second
        assert first.stats.read_ids == second.stats.read_ids

    def test_schedule_with_list_windows_is_cached(self, outage_trace):
        def schedule():
            return DeliverySchedule(quiet_hours=QuietHours(windows=[[0.0, 7.0]]))

        first = run_baseline(outage_trace, schedule=schedule())
        assert run_baseline(outage_trace, schedule=schedule()) is first

    @pytest.mark.parametrize(
        "faults", [None, PRESETS["lossy"]], ids=["clean", "lossy"]
    )
    def test_baseline_equals_direct_online_run(self, outage_trace, faults):
        # The reference is the uncached path itself, so no switch is
        # needed to get it: first call (miss) and repeat (hit) must both
        # equal a direct on-line run over the same trace and kwargs.
        kwargs = {} if faults is None else {"faults": faults}
        direct = run_scenario(
            outage_trace, PolicyConfig.online(), threshold=1.0, **kwargs
        )
        for _ in range(2):
            cached = run_baseline(outage_trace, threshold=1.0, **kwargs)
            assert cached.stats == direct.stats
            assert cached.events_processed == direct.events_processed
        if faults is not None:
            assert direct.stats != run_baseline(outage_trace, threshold=1.0).stats

    def test_omitted_none_and_null_spec_share_an_entry(self, outage_trace):
        first = run_baseline(outage_trace)
        assert run_baseline(outage_trace, faults=None) is first
        assert run_baseline(outage_trace, faults=FaultSpec.none()) is first
        assert run_baseline(outage_trace, faults=PRESETS["lossy"]) is not first

    def test_eviction_respects_lru_bound(self):
        config = make_config(days=2.0)
        traces = [
            build_trace(config, seed=seed)
            for seed in range(runner_module.BASELINE_CACHE_SIZE + 4)
        ]
        for trace in traces:
            run_baseline(trace)
        assert (
            len(runner_module._BASELINE_CACHE) == runner_module.BASELINE_CACHE_SIZE
        )
        # The oldest traces were evicted; re-running them misses.
        assert run_baseline(traces[0]) is not None

    def test_run_paired_consults_cache(self, outage_trace):
        baseline = run_baseline(outage_trace)
        paired = run_paired(outage_trace, PolicyConfig.on_demand())
        assert paired.baseline is baseline


class TestPairedRuns:
    def test_online_baseline_has_zero_loss_against_itself(self, outage_trace):
        result = run_paired(outage_trace, PolicyConfig.online())
        assert result.metrics.loss == 0.0

    def test_on_demand_zero_waste_guarantee(self, outage_trace):
        result = run_paired(outage_trace, PolicyConfig.on_demand())
        assert result.metrics.waste == 0.0

    def test_policy_waste_capped_by_baseline(self, overflow_trace):
        """The on-line scenario is 'the cap for the maximum level of waste'."""
        result = run_paired(overflow_trace, PolicyConfig.buffer(prefetch_limit=65536))
        assert result.metrics.waste <= result.metrics.baseline_waste + 0.02

    def test_overflow_waste_matches_formula(self, overflow_trace):
        result = run_paired(overflow_trace, PolicyConfig.online())
        expected = expected_overflow_waste(2.0, 8, 32.0)
        assert result.metrics.baseline_waste == pytest.approx(expected, abs=0.03)

    def test_run_paired_config_builds_trace(self):
        result = run_paired_config(
            make_config(days=10.0), PolicyConfig.on_demand(), seed=1
        )
        assert result.baseline.stats.arrivals > 0
        assert result.metrics.waste == 0.0

    def test_full_outage_equalizes_policies(self):
        trace = build_trace(make_config(days=10.0, outage_fraction=1.0), seed=2)
        result = run_paired(trace, PolicyConfig.on_demand())
        assert result.baseline.stats.messages_read == 0
        assert result.metrics.loss == 0.0
