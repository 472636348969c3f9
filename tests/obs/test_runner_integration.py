"""End-to-end: observability wired through a real scenario run.

These are the tentpole's acceptance checks in miniature: a run with
``--audit``-style configuration completes with zero violations, the ring
holds real delivery-path records, the probes attribute time to the right
phases, and a disabled configuration changes nothing about the outcome.
"""

import pytest

from repro import obs
from repro.experiments.cooperation import (
    CooperationConfig,
    run_cooperative_scenario,
)
from repro.experiments.runner import (
    clear_baseline_cache,
    run_paired_config,
    run_scenario,
)
from repro.proxy.policies import PolicyConfig
from repro.workload.scenario import build_trace

from tests.conftest import make_config


@pytest.fixture(autouse=True)
def _reset_obs():
    clear_baseline_cache()
    yield
    obs.configure(None)
    clear_baseline_cache()


class TestAuditedRun:
    def test_audited_run_completes_without_violations(self):
        ctx = obs.configure(obs.ObsConfig(audit_interval=1))
        trace = build_trace(make_config(days=5.0), seed=0)
        run_scenario(trace, PolicyConfig.unified())
        assert ctx.auditor.transitions > 0
        assert ctx.auditor.audits == ctx.auditor.transitions

    def test_sampled_audit_sweeps_less_often(self):
        ctx = obs.configure(obs.ObsConfig(audit_interval=50))
        trace = build_trace(make_config(days=5.0), seed=0)
        run_scenario(trace, PolicyConfig.unified())
        assert ctx.auditor.audits == ctx.auditor.transitions // 50


class TestRecordedRun:
    def test_ring_holds_forward_records(self):
        ctx = obs.configure(obs.ObsConfig(trace_capacity=100_000))
        trace = build_trace(make_config(days=5.0), seed=0)
        result = run_scenario(trace, PolicyConfig.online())
        kinds = {type(record).kind for record in ctx.recorder.records()}
        assert "forward" in kinds
        forwards = [
            r for r in ctx.recorder.records() if type(r).kind == "forward"
        ]
        assert len(forwards) == result.stats.forwarded

    def test_observability_does_not_change_the_outcome(self):
        trace = build_trace(make_config(days=5.0), seed=0)
        obs.configure(None)
        plain = run_scenario(trace, PolicyConfig.unified())
        obs.configure(
            obs.ObsConfig(audit_interval=1, trace_capacity=1024, probes=True)
        )
        observed = run_scenario(trace, PolicyConfig.unified())
        assert observed.stats == plain.stats
        assert observed.events_processed == plain.events_processed


class TestProbedRun:
    def test_phases_attributed(self):
        obs.configure(obs.ObsConfig(probes=True))
        # The trace-build phase wraps the LRU lookup, so it is attributed
        # whether or not an earlier test left this trace cached.
        run_paired_config(make_config(days=3.0), PolicyConfig.unified(), seed=0)
        summary = obs.summarize_obs()
        assert set(summary["phases"]) >= {"trace-build", "baseline", "variant"}
        counters = summary["counters"]
        assert counters["runs"] == 2  # baseline + variant
        assert counters["events"] > 0


class TestCooperativeRun:
    """The cooperative runner observes like ``run_scenario``: every
    proxy of the group records and is audited, and the probes count it."""

    def test_every_proxy_is_audited_and_recorded(self):
        ctx = obs.configure(
            obs.ObsConfig(audit_interval=1, trace_capacity=100_000, probes=True)
        )
        trace = build_trace(make_config(days=5.0), seed=0)
        result = run_cooperative_scenario(
            trace, PolicyConfig.unified(), CooperationConfig(n_peers=2)
        )
        assert ctx.auditor.transitions > 0
        assert ctx.auditor.audits == ctx.auditor.transitions
        forwards = [
            r for r in ctx.recorder.records() if type(r).kind == "forward"
        ]
        assert len(forwards) == result.stats.pushed + result.stats.pulled
        counters = obs.summarize_obs()["counters"]
        assert counters["runs"] == 1
        assert counters["events"] == result.events_processed

    def test_observability_does_not_change_the_outcome(self):
        trace = build_trace(make_config(days=5.0), seed=0)
        cooperation = CooperationConfig(n_peers=2)
        plain = run_cooperative_scenario(trace, PolicyConfig.unified(), cooperation)
        obs.configure(
            obs.ObsConfig(audit_interval=1, trace_capacity=1024, probes=True)
        )
        observed = run_cooperative_scenario(
            trace, PolicyConfig.unified(), cooperation
        )
        assert observed.stats == plain.stats
        assert observed.borrowed == plain.borrowed
        assert observed.events_processed == plain.events_processed
