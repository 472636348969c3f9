"""Unit tests for the cooperative scenario runner."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cooperation import (
    CooperationConfig,
    run_cooperative_paired,
    run_cooperative_scenario,
)
from repro.experiments.runner import clear_baseline_cache, run_scenario
from repro.faults import PRESETS
from repro.proxy.policies import PolicyConfig
from repro.types import PolicyKind
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.scenario import build_trace

from tests.conftest import make_config


@pytest.fixture(scope="module")
def trace():
    config = dataclasses.replace(
        make_config(days=30.0),
        outages=OutageConfig(
            downtime_fraction=0.9, outages_per_day=1.0, duration_sigma=1.0
        ),
    )
    return build_trace(config, seed=6)


class TestConfig:
    def test_default_peer_policy_is_large_buffer(self):
        config = CooperationConfig()
        policy = config.effective_peer_policy(PolicyConfig.unified())
        assert policy.kind is PolicyKind.BUFFER
        assert policy.prefetch_limit == 1024

    def test_explicit_peer_policy_wins(self):
        config = CooperationConfig(peer_policy=PolicyConfig.online())
        assert config.effective_peer_policy(
            PolicyConfig.unified()
        ).kind is PolicyKind.ONLINE


class TestRuns:
    def test_deterministic(self, trace):
        a = run_cooperative_scenario(trace, PolicyConfig.unified())
        b = run_cooperative_scenario(trace, PolicyConfig.unified())
        assert a.stats.read_ids == b.stats.read_ids
        assert a.borrowed == b.borrowed

    def test_zero_peers_behaves_like_single_device(self, trace):
        from repro.experiments.runner import run_scenario

        single = run_scenario(trace, PolicyConfig.unified())
        group = run_cooperative_scenario(
            trace, PolicyConfig.unified(), CooperationConfig(n_peers=0)
        )
        assert group.borrowed == 0
        assert group.stats.read_ids == single.stats.read_ids

    def test_paired_result_fields(self, trace):
        result = run_cooperative_paired(
            trace, PolicyConfig.unified(), CooperationConfig(n_peers=1)
        )
        assert result.baseline.stats.messages_read > 0
        assert 0.0 <= result.metrics.loss <= 1.0
        assert result.cooperative.borrowed >= 0

    def test_adhoc_zero_never_borrows(self, trace):
        group = run_cooperative_scenario(
            trace,
            PolicyConfig.unified(),
            CooperationConfig(n_peers=1, adhoc_availability=0.0),
        )
        assert group.borrowed == 0

    def test_bad_adhoc_availability_rejected(self, trace):
        with pytest.raises(ConfigurationError):
            run_cooperative_scenario(
                trace,
                PolicyConfig.unified(),
                CooperationConfig(adhoc_availability=2.0),
            )

    def test_rank_changes_rejected(self):
        """The group replay does not deliver rank changes, so a trace
        carrying them would pair different inputs: it is refused."""
        config = dataclasses.replace(
            make_config(days=10.0),
            rank_changes=RankChangeConfig(drop_fraction=0.2, boost_fraction=0.2),
        )
        trace = build_trace(config, seed=0)
        assert trace.num_rank_changes > 0
        with pytest.raises(ConfigurationError, match="rank changes"):
            run_cooperative_scenario(trace, PolicyConfig.unified())


@pytest.fixture(scope="module")
def half_down_traces():
    config = make_config(days=10.0, outage_fraction=0.5)
    return {seed: build_trace(config, seed=seed) for seed in range(3)}


class TestFaults:
    @pytest.mark.parametrize("preset", ["lossy", "chaos"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["on_demand", "unified", "online"])
    def test_zero_peers_matches_run_scenario(
        self, half_down_traces, preset, seed, policy
    ):
        """The reader runs the very plan ``run_scenario`` builds."""
        trace = half_down_traces[seed]
        policy_config = getattr(PolicyConfig, policy)()
        spec = PRESETS[preset]
        group = run_cooperative_scenario(
            trace, policy_config, CooperationConfig(n_peers=0), faults=spec
        )
        assert group.stats == run_scenario(trace, policy_config, faults=spec).stats

    def test_paired_runs_the_spec_on_both_halves(self, half_down_traces):
        clear_baseline_cache()
        try:
            result = run_cooperative_paired(
                half_down_traces[0],
                PolicyConfig.unified(),
                CooperationConfig(n_peers=1),
                faults=PRESETS["lossy"],
            )
        finally:
            clear_baseline_cache()
        assert result.baseline.stats.delivery_drops > 0
        assert result.cooperative.stats.delivery_drops > 0
