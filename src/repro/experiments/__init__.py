"""Experiment harness reproducing the paper's evaluation (Section 3).

* :mod:`~repro.experiments.runner` — wires a frozen trace into a full
  simulator (proxy + link + device) and executes paired runs: the
  on-line baseline and the policy under test over identical events.
* :mod:`~repro.experiments.parallel` — deterministic fan-out of figure
  grids and fleet shards across worker processes (``jobs=N``).
* :mod:`~repro.experiments.figures` — one module per paper figure plus
  the ablations; each regenerates the corresponding data series.
* :mod:`~repro.experiments.report` — plain-text table output.
* :mod:`~repro.experiments.cli` — ``repro-lasthop`` command-line entry.
"""

from repro.experiments.parallel import parallel_map
from repro.experiments.runner import (
    PairedResult,
    RunResult,
    run_baseline,
    run_paired,
    run_paired_config,
    run_scenario,
)
from repro.experiments.report import Table, render_table

__all__ = [
    "PairedResult",
    "RunResult",
    "Table",
    "parallel_map",
    "render_table",
    "run_baseline",
    "run_paired",
    "run_paired_config",
    "run_scenario",
]
