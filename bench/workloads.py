"""The six benchmark workloads and their output digests.

Each workload is one call of a public entry point at a stated input
size (see ``README.md`` for why each exists and which layer it
stresses). ``run(seed, scale, tmp)`` executes one repetition — this is
the timed region — and ``summarize`` turns what it returned into an
:class:`Outcome` afterwards: the text whose sha256 is the repetition's
output digest, the work counts the throughput metrics divide by the
wall clock, and what the traced run's direct probes need.

``scale`` divides every size (``--quick`` passes 10); 1 is the
benchmark.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.figures import fig2_overflow_loss as fig2
from repro.experiments.figures import fig3_buffer_prefetch as fig3
from repro.experiments.figures import fig6_expiration_threshold as fig6
from repro.experiments.runner import clear_baseline_cache
from repro.faults import FaultSpec
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.runner import FleetResult, run_fleet
from repro.fleet.store import SweepStore, canonical_json, dump_rows
from repro.fleet.sweep import FleetSweepConfig, parse_policy_token, run_fleet_sweep
from repro.fleet.tune import TuneConfig, TuneParam, run_fleet_tune, trajectory_jsonl
from repro.proxy.policies import PolicyConfig
from repro.sim.engine import Simulator
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import clear_trace_cache

#: Input seeds with a pinned digest in ``expected_digests.json``. A
#: repetition's input seed is ``(--seed + r) % SEED_POOL``, so every
#: ``--seed`` the driver picks lands on pinned outputs.
SEED_POOL = 32

#: The repo's canonical campaign shape (comparable with the 37/53/70
#: µs/device history in CHANGES.md).
LIGHT = dict(
    arrivals=ArrivalConfig(events_per_day=2),
    reads=ReadConfig(reads_per_day=0.5),
    outages=OutageConfig(downtime_fraction=0.1),
    duration=DAY,
)

SWEEP_POLICIES = ("online", "on_demand", "unified", "buffer:8")


@dataclass
class Outcome:
    """What one repetition produced."""

    #: sha256 of this text is the repetition's output digest.
    digest_text: str
    #: Simulated devices (single-device scenario runs count one each).
    devices: int
    #: Simulator events fired.
    events: int
    #: Newly computed campaign cells (a lone fleet campaign is one).
    cells: int
    #: Policy evaluations (``TuneOutcome.evaluations``; elsewhere = cells).
    evals: int
    #: Paper-shape violations (``figure_grid`` at full size only).
    shape_errors: List[str] = field(default_factory=list)
    #: sqlite file the campaign wrote, for the store probes.
    store_path: Optional[Path] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.digest_text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Fleet shards
# ----------------------------------------------------------------------

def _run_fleet(
    config: FleetScenarioConfig, faults: Optional[FaultSpec] = None
) -> FleetResult:
    return run_fleet(
        config, PolicyConfig.unified(), shards=1, jobs=1, faults=faults
    )


def summarize_fleet(result: FleetResult) -> Outcome:
    accumulator = result.accumulator
    return Outcome(
        digest_text=canonical_json(accumulator.signature()),
        devices=accumulator.devices,
        events=accumulator.events_processed,
        cells=1,
        evals=1,
    )


def run_fleet_wide(seed: int, scale: int, tmp: Path) -> FleetResult:
    return _run_fleet(FleetScenarioConfig(devices=30_000 // scale, seed=seed, **LIGHT))


def run_fleet_deep(seed: int, scale: int, tmp: Path) -> FleetResult:
    return _run_fleet(
        FleetScenarioConfig(
            devices=400 // scale,
            seed=seed,
            duration=14 * DAY,
            arrivals=ArrivalConfig(events_per_day=32),
            reads=ReadConfig(reads_per_day=4),
            outages=OutageConfig(downtime_fraction=0.3),
        )
    )


def run_fleet_lossy(seed: int, scale: int, tmp: Path) -> FleetResult:
    return _run_fleet(
        FleetScenarioConfig(devices=20_000 // scale, seed=seed, **LIGHT),
        FaultSpec.parse("lossy"),
    )


# ----------------------------------------------------------------------
# Campaigns over the sqlite store
# ----------------------------------------------------------------------

def sweep_config(seed: int, scale: int) -> FleetSweepConfig:
    return FleetSweepConfig(
        base=FleetScenarioConfig(**LIGHT),
        policies=tuple(parse_policy_token(p) for p in SWEEP_POLICIES),
        seeds=(seed, seed + 1),
        axes=(("devices", (4000 // scale, 8000 // scale)),),
    )


def tune_config(seed: int, scale: int) -> TuneConfig:
    return TuneConfig(
        base=FleetScenarioConfig(devices=2000 // scale, **LIGHT),
        space=(
            TuneParam("ma_window", lo=2, hi=32, integer=True),
            TuneParam("delay", choices=(0.0, 60.0)),
        ),
        preset="unified",
        seeds=(seed, seed + 1),
        screen_seeds=1,
        samples=6,
        survivors=2,
        refine_rounds=2,
    )


def _row_totals(rows) -> Tuple[int, int]:
    """(devices, simulator events) summed over stored campaign rows."""
    metrics = [row.metrics for row in rows]
    return (
        sum(int(m["devices"]) for m in metrics),
        sum(int(m["events_processed"]) for m in metrics),
    )


def run_sweep_grid(seed: int, scale: int, tmp: Path):
    path = tmp / "sweep.sqlite"
    with SweepStore(path) as store:
        return path, run_fleet_sweep(
            sweep_config(seed, scale), store, shards=2, jobs=2
        )


def summarize_sweep(raw) -> Outcome:
    path, outcome = raw
    devices, events = _row_totals(outcome.rows)
    return Outcome(
        digest_text=dump_rows(outcome.rows),
        devices=devices,
        events=events,
        cells=outcome.computed,
        evals=outcome.computed,
        store_path=path,
    )


def run_tune_search(seed: int, scale: int, tmp: Path):
    path = tmp / "tune.sqlite"
    with SweepStore(path) as store:
        return path, run_fleet_tune(
            tune_config(seed, scale), store, shards=1, jobs=1
        )


def summarize_tune(raw) -> Outcome:
    path, outcome = raw
    devices, events = _row_totals(outcome.rows)
    return Outcome(
        digest_text=dump_rows(outcome.rows)
        + "\n"
        + trajectory_jsonl(outcome.trajectory),
        devices=devices,
        events=events,
        cells=outcome.computed,
        evals=outcome.evaluations,
        store_path=path,
    )


# ----------------------------------------------------------------------
# Paper figures (single-device path, no fleet stack)
# ----------------------------------------------------------------------

@contextmanager
def count_simulator_runs() -> Iterator[Dict[str, int]]:
    """Count ``Simulator.run`` calls and the events they fire.

    The figure modules return only tables, so this is the one place an
    end-to-end count needs a hook: a few hundred calls per repetition,
    each adding two attribute reads.
    """
    totals = {"runs": 0, "events": 0}
    wrapped = Simulator.run

    def run(self, until=None):
        before = self.events_processed
        try:
            return wrapped(self, until)
        finally:
            totals["runs"] += 1
            totals["events"] += self.events_processed - before

    Simulator.run = run
    try:
        yield totals
    finally:
        Simulator.run = wrapped


def _column(table, header: str) -> Dict[object, float]:
    index = table.headers.index(header)
    return {row[0]: row[index] for row in table.rows}


def figure_shape_errors(fig2_table, fig3_tables, fig6_tables) -> List[str]:
    """The paper-shape checks of ``benchmarks/test_bench_fig{2,3,6}.py``.

    Same cells and thresholds as the micro-suite, read out of the full
    default grids (the fig6 bounds are stated there for 60 virtual days;
    they hold at this workload's 30 on every pinned seed).
    """
    checks: List[Tuple[str, bool]] = []

    curve = _column(fig2_table, "uf=1")
    checks += [
        ("fig2 loss(outage=0) < 5", curve[0.0] < 5.0),
        ("fig2 loss(outage=0.5) > 20", curve[0.5] > 20.0),
        ("fig2 loss(0.9) > loss(0.5)", curve[0.9] > curve[0.5]),
        ("fig2 loss(outage=1) == 0", curve[1.0] == 0.0),
    ]

    loss_table, waste_table = fig3_tables
    losses = _column(loss_table, "outage=0.5")
    wastes = _column(waste_table, "outage=0.5")
    checks += [
        ("fig3 loss(limit=1) > 20", losses[1] > 20.0),
        ("fig3 loss(limit=16) < 8", losses[16] < 8.0),
        ("fig3 waste(limit=16) < 5", wastes[16] < 5.0),
        ("fig3 waste monotone 16<=64<=4096", wastes[16] <= wastes[64] <= wastes[4096]),
        ("fig3 waste(limit=4096) > 20", wastes[4096] > 20.0),
    ]

    waste_table, loss_table = fig6_tables
    short, long_ = waste_table.headers[1], waste_table.headers[-1]
    short_waste, short_loss = _column(waste_table, short), _column(loss_table, short)
    long_waste, long_loss = _column(waste_table, long_), _column(loss_table, long_)
    checks += [
        ("fig6 short waste(64) > 40", short_waste[64.0] > 40.0),
        ("fig6 short waste(262144) < 5", short_waste[262144.0] < 5.0),
        ("fig6 short loss(64) < 5", short_loss[64.0] < 5.0),
        ("fig6 short loss(262144) > 25", short_loss[262144.0] > 25.0),
        ("fig6 long waste(262144) < 10", long_waste[262144.0] < 10.0),
        ("fig6 long loss(262144) < 10", long_loss[262144.0] < 10.0),
    ]
    return [name for name, ok in checks if not ok]


def run_figure_grid(seed: int, scale: int, tmp: Path):
    duration = 30 * DAY / scale
    # The per-process trace and baseline LRUs are keyed by (config,
    # seed): a second pass over one seed would replay from them, so
    # start every repetition cold.
    clear_trace_cache()
    clear_baseline_cache()
    with count_simulator_runs() as totals:
        table2 = fig2.run(fig2.Fig2Config(duration=duration, seeds=(seed,)), jobs=1)
        tables3 = fig3.run(fig3.Fig3Config(duration=duration, seeds=(seed,)), jobs=1)
        tables6 = fig6.run(fig6.Fig6Config(duration=duration, seeds=(seed,)), jobs=1)
    return table2, tables3, tables6, totals, scale


def summarize_figures(raw) -> Outcome:
    table2, tables3, tables6, totals, scale = raw
    tables = (table2, *tables3, *tables6)
    cells = sum(len(t.rows) * (len(t.headers) - 1) for t in (table2, tables3[0], tables6[0]))
    return Outcome(
        digest_text="\n\n".join(table.render() for table in tables),
        devices=totals["runs"],
        events=totals["events"],
        cells=cells,
        evals=cells,
        shape_errors=(
            figure_shape_errors(table2, tables3, tables6) if scale == 1 else []
        ),
    )


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed repetitions of the fixed-R protocol (no ``--seconds``).
    reps: int
    #: The timed region: one call of the public entry point(s).
    run: Callable[[int, int, Path], Any]
    summarize: Callable[[Any], Outcome]


#: Why each exists is a line of ``BENCHMARK.json`` and a row of README.md.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("fleet_wide", 9, run_fleet_wide, summarize_fleet),
    Workload("fleet_deep", 7, run_fleet_deep, summarize_fleet),
    Workload("fleet_lossy", 7, run_fleet_lossy, summarize_fleet),
    Workload("sweep_grid", 5, run_sweep_grid, summarize_sweep),
    Workload("tune_search", 5, run_tune_search, summarize_tune),
    Workload("figure_grid", 5, run_figure_grid, summarize_figures),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
