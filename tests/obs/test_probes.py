"""Unit tests for the per-phase timing/counter probes."""

from repro.obs.probes import PhaseProbes


class TestDisabled:
    def test_phase_and_count_are_noops(self):
        probes = PhaseProbes(enabled=False)
        with probes.phase("baseline"):
            pass
        probes.count("runs")
        assert probes.phases() == []
        assert probes.counters() == {}
        assert probes.summary() == {"phases": {}, "counters": {}}


class TestEnabled:
    def test_phase_accumulates_calls_and_time(self):
        probes = PhaseProbes(enabled=True)
        for _ in range(3):
            with probes.phase("variant"):
                pass
        (summary,) = probes.phases()
        assert summary.name == "variant"
        assert summary.calls == 3
        assert summary.total_seconds >= 0.0

    def test_phase_records_on_exception(self):
        probes = PhaseProbes(enabled=True)
        try:
            with probes.phase("trace-build"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert probes.phases()[0].calls == 1

    def test_counters_accumulate(self):
        probes = PhaseProbes(enabled=True)
        probes.count("runs")
        probes.count("runs")
        probes.count("events", 100)
        assert probes.counters() == {"runs": 2, "events": 100}

    def test_phases_sorted_most_expensive_first(self):
        probes = PhaseProbes(enabled=True)
        probes._phases["cheap"] = [1, 0.001]
        probes._phases["dear"] = [1, 1.0]
        assert [s.name for s in probes.phases()] == ["dear", "cheap"]

    def test_reset(self):
        probes = PhaseProbes(enabled=True)
        with probes.phase("scatter"):
            pass
        probes.count("runs")
        probes.reset()
        assert probes.summary() == {"phases": {}, "counters": {}}
