"""Tests for the process-wide observability configuration plumbing."""

import pickle

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    obs.configure(None)


class TestConfigure:
    def test_off_by_default(self):
        obs.configure(None)
        assert obs.active() is None
        assert obs.active_config() is None
        assert obs.PROBES.enabled is False

    def test_disabled_config_is_off(self):
        assert obs.ObsConfig().enabled is False
        assert obs.configure(obs.ObsConfig()) is None
        assert obs.active() is None

    def test_trace_only(self):
        ctx = obs.configure(obs.ObsConfig(trace_capacity=64))
        assert ctx is obs.active()
        assert ctx.recorder is not None
        assert ctx.recorder.capacity == 64
        assert ctx.auditor is None

    def test_audit_creates_default_ring_for_context(self):
        ctx = obs.configure(obs.ObsConfig(audit_interval=2))
        assert ctx.auditor is not None
        assert ctx.auditor.interval == 2
        # No --trace-out, but the audit wants trailing context records.
        assert ctx.recorder is not None
        assert ctx.recorder.capacity == obs.DEFAULT_CAPACITY

    def test_probes_flag_controls_global_probes(self):
        obs.configure(obs.ObsConfig(probes=True))
        assert obs.PROBES.enabled is True
        obs.configure(None)
        assert obs.PROBES.enabled is False

    def test_config_roundtrips_for_workers(self):
        # The parallel executor ships the config to pool initializers.
        config = obs.ObsConfig(audit_interval=3, trace_capacity=128, probes=True)
        obs.configure(config)
        shipped = pickle.loads(pickle.dumps(obs.active_config()))
        assert shipped == config


class TestSummarize:
    def test_summary_merges_recorder_and_auditor_counters(self):
        ctx = obs.configure(
            obs.ObsConfig(audit_interval=1, trace_capacity=4, probes=True)
        )
        ctx.recorder.forward(1.0, "t", 1, "PUSHED", 0)
        obs.PROBES.count("runs")
        summary = obs.summarize_obs()
        counters = summary["counters"]
        assert counters["runs"] == 1
        assert counters["trace-records"] == 1
        assert counters["trace-held"] == 1
        assert counters["trace-dropped"] == 0
        assert counters["audit-transitions"] == 0
        assert counters["audit-sweeps"] == 0

    def test_summary_safe_when_off(self):
        obs.configure(None)
        assert obs.summarize_obs() == {"phases": {}, "counters": {}}
