"""Gate: the paper's object path costs the same per event at any duration.

Every table in ``results/`` is a one-virtual-year run. A read path that
pays for queue depth (copying a lazy-deletion heap that grows with
simulated time, popping through the stale entries earlier reads left)
makes a year cost 50-110x a month for 12x the events. Host time cannot
resolve that reliably in CI, so this counts instead: Python and C calls
inside ``Simulator.run`` per fired event, via ``sys.setprofile``. The
count is deterministic for a given interpreter, and a flat read path
keeps it within a few percent from 30 days to a year.
"""

import sys

import pytest

from repro.experiments.runner import run_scenario
from repro.proxy.policies import PolicyConfig
from repro.sim.engine import Simulator
from repro.units import DAY
from repro.workload.scenario import ScenarioConfig, build_trace

#: Year-over-month ceiling on calls per event. A flat path measures
#: ~1.01; the copying read path measured 3.45-5.77.
MAX_GROWTH = 1.2


def _calls_per_event(monkeypatch, trace, policy):
    counted = {}
    run = Simulator.run

    def counting_run(self, until=None):
        calls = 0

        def profile(_frame, event, _arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run(self, until)
        finally:
            sys.setprofile(previous)
        counted["calls"] = calls
        counted["events"] = self.events_processed

    monkeypatch.setattr(Simulator, "run", counting_run)
    run_scenario(trace, policy)
    monkeypatch.setattr(Simulator, "run", run)
    return counted["calls"] / counted["events"]


@pytest.fixture(scope="module")
def traces():
    return {
        days: build_trace(ScenarioConfig(duration=days * DAY), seed=0)
        for days in (30, 365)
    }


@pytest.mark.parametrize(
    "policy",
    [PolicyConfig.online(), PolicyConfig.on_demand(), PolicyConfig.unified()],
    ids=lambda policy: policy.kind.value,
)
def test_calls_per_event_flat_from_month_to_year(monkeypatch, traces, policy):
    month = _calls_per_event(monkeypatch, traces[30], policy)
    year = _calls_per_event(monkeypatch, traces[365], policy)
    assert year <= MAX_GROWTH * month, (
        f"{policy.describe()}: {year:.2f} calls/event over a year vs "
        f"{month:.2f} over 30 days"
    )
