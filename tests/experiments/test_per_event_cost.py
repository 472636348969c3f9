"""Gates: per-event cost, counted in calls rather than timed.

Host time cannot resolve per-event cost reliably in CI, so these count
Python and C calls inside ``Simulator.run`` per fired event
(:func:`tests.conftest.calls_per_event`, via ``sys.setprofile``); the
count is deterministic for a given interpreter.

* **The paper's object path costs the same per event at any duration.**
  Every table in ``results/`` is a one-virtual-year run. A read path
  that pays for queue depth (copying a lazy-deletion heap that grows
  with simulated time, popping through the stale entries earlier reads
  left) makes a year cost 50-110x a month for 12x the events; a flat
  read path keeps calls per event within a few percent from 30 days to
  a year.
* **A deep clean fleet shard stays on its rows.** Its bindings queue
  arrivals through outages and full buffers and read while their links
  are down; the batch pump's resident handlers run all of it on the
  binding table, a few calls per event. A binding pushed onto its
  object graph costs several times that.
* **The paper's overflow cells stay on a row.** ``run_scenario`` is a
  one-device fleet shard, so a fig2-shaped cell (overflow through
  outages, no expirations, no rank changes) runs on the pump's resident
  handlers too: a few calls per event, against 30-odd on the object
  path it used to take.
* **So do its expiration cells.** A fig6-shaped cell arms the proxy's
  and the device's expiration timers from its row and takes them back
  there, at well under the object path's 23-46 calls per event; an
  expiring deep fleet shard stays on its rows as the plain one does.
"""

import pytest

from repro.experiments.figures.common import scenario
from repro.experiments.runner import run_scenario
from repro.fleet import FleetScenarioConfig, run_fleet
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace
from tests.conftest import calls_per_event

#: Year-over-month ceiling on calls per event. A flat path measures
#: ~1.01; the copying read path measured 3.45-5.77.
MAX_GROWTH = 1.2

#: Ceiling on calls per event of the deep clean fleet shard below. On
#: its rows it measures 3.7-4.3 (8.05 with a 60 s delay stage, whose
#: timers are events too; 6.9-9.0 with half its arrivals expiring);
#: with outages and full buffers materializing every binding it
#: measured 29-52, 43.1 with the delay stage while a fixed delay kept
#: the whole shard off its rows, and 48.7-52.6 with expiring arrivals
#: while those escaped.
FLEET_MAX_CALLS = 15.0

#: Ceiling on calls per event of a fig2- or fig6-shaped ``run_scenario``
#: cell. On its row a fig2 cell measures 1.7-2.5 and a fig6 cell
#: 6.2-9.5; the object path measured 32-67 and 23.5-46.1.
FIGURE_CELL_MAX_CALLS = 10.0


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
    month = calls_per_event(monkeypatch, lambda: run_scenario(traces[30], policy))
    year = calls_per_event(monkeypatch, lambda: run_scenario(traces[365], policy))
    assert year <= MAX_GROWTH * month, (
        f"{policy.describe()}: {year:.2f} calls/event over a year vs "
        f"{month:.2f} over 30 days"
    )


@pytest.mark.parametrize(
    "policy",
    [
        PolicyConfig.online(),
        PolicyConfig.on_demand(),
        PolicyConfig.unified(),
        PolicyConfig.buffer(prefetch_limit=8),
        PolicyConfig.unified(delay=60.0),
    ],
    ids=lambda policy: policy.kind.value
    + (f"-delay{policy.delay:g}" if policy.delay else ""),
)
def test_deep_fleet_shard_calls_per_event(monkeypatch, policy):
    """40 devices x 14 days of the benchmark's ``fleet_deep`` shape;
    under a fixed delay every live arrival also arms and fires the delay
    stage's timer on its row."""
    per_event = calls_per_event(
        monkeypatch, lambda: run_fleet(_deep_config(), policy)
    )
    assert per_event <= FLEET_MAX_CALLS, (
        f"{policy.describe()}: {per_event:.2f} calls/event on the deep shard"
    )


def _deep_config(**arrivals):
    return FleetScenarioConfig(
        devices=40,
        seed=3,
        duration=14 * DAY,
        arrivals=ArrivalConfig(events_per_day=32, **arrivals),
        reads=ReadConfig(reads_per_day=4),
        outages=OutageConfig(downtime_fraction=0.3),
    )


@pytest.mark.parametrize(
    "policy",
    [
        PolicyConfig.online(),
        PolicyConfig.on_demand(),
        PolicyConfig.unified(),
        PolicyConfig.unified(expiration_threshold=4096.0),
    ],
    ids=lambda policy: policy.describe(),
)
def test_expiring_deep_fleet_shard_calls_per_event(monkeypatch, policy):
    """The deep shape with half its arrivals expiring within a day: the
    rows arm, cancel and fire both expiration timers themselves."""
    config = _deep_config(expiring_fraction=0.5, expiration_mean=DAY / 4)
    per_event = calls_per_event(monkeypatch, lambda: run_fleet(config, policy))
    assert per_event <= FLEET_MAX_CALLS, (
        f"{policy.describe()}: {per_event:.2f} calls/event on the expiring "
        f"deep shard"
    )


@pytest.mark.parametrize(
    "policy",
    [PolicyConfig.online(), PolicyConfig.on_demand(), PolicyConfig.buffer(prefetch_limit=8)],
    ids=lambda policy: policy.describe(),
)
@pytest.mark.parametrize(
    "outage, user_frequency", [(0.5, 2.0), (0.1, 8.0)], ids=["o0.5-uf2", "o0.1-uf8"]
)
def test_figure_cell_calls_per_event(monkeypatch, policy, outage, user_frequency):
    """30 days of one Fig. 2 cell through ``run_scenario``."""
    trace = build_trace(
        scenario(
            duration=30 * DAY, user_frequency=user_frequency, outage_fraction=outage
        ),
        seed=0,
    )
    per_event = calls_per_event(monkeypatch, lambda: run_scenario(trace, policy))
    assert per_event <= FIGURE_CELL_MAX_CALLS, (
        f"{policy.describe()}: {per_event:.2f} calls/event on a figure cell"
    )


@pytest.mark.parametrize(
    "policy",
    [
        PolicyConfig.online(),
        PolicyConfig.unified(expiration_threshold=4096.0),
        PolicyConfig.unified(expiration_threshold=262144.0),
    ],
    ids=lambda policy: policy.describe(),
)
@pytest.mark.parametrize("lifetime", [15360.0, 983040.0], ids=["exp4.3h", "exp11d"])
def test_fig6_cell_calls_per_event(monkeypatch, policy, lifetime):
    """30 days of one Fig. 6 cell (uf 2, 90 % outage) through
    ``run_scenario``: every arrival expires."""
    trace = build_trace(
        scenario(
            duration=30 * DAY,
            user_frequency=2.0,
            outage_fraction=0.9,
            expiration_mean=lifetime,
        ),
        seed=0,
    )
    per_event = calls_per_event(monkeypatch, lambda: run_scenario(trace, policy))
    assert per_event <= FIGURE_CELL_MAX_CALLS, (
        f"{policy.describe()}: {per_event:.2f} calls/event on a fig6 cell"
    )
