"""Figure 1 — waste due to overflow under on-line forwarding.

"Figure 1 shows the percentage of waste (i.e. the fraction of unread
forwarded messages) at different values of Max and user frequency.
Without loss of generality, event frequency was fixed at 32
notifications per day. […] a user that reads a maximum of 32 messages
once a day will not cause any waste, but if Max is reduced to 4, then
88 % of the forwarded messages are wasted. The shapes of these curves
can be approximated very well by a simple formula:
Waste % = 1 − user_frequency · Max / event_frequency."

Curves: one per user frequency in {0.25 … 32}; x axis: Max ∈ {1 … 64}.
No expirations, no outages, on-line policy (loss is zero by definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    measure_grid,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.experiments.runner import run_scenario
from repro.faults import FaultSpec
from repro.metrics.analytic import expected_overflow_waste
from repro.metrics.waste_loss import compute_waste
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR
from repro.workload.scenario import build_trace_cached

#: Paper's x axis: "Maximum Messages per Read".
MAX_VALUES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: Paper's curve family: user frequencies.
USER_FREQUENCIES: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class Fig1Config:
    """Sweep parameters; defaults are the paper's."""

    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    max_values: Tuple[int, ...] = MAX_VALUES
    user_frequencies: Tuple[float, ...] = USER_FREQUENCIES
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig1Config, user_frequency: float, max_per_read: int
) -> float:
    """Measured waste fraction at one (user frequency, Max) point."""
    wastes: List[float] = []
    for seed in config.seeds:
        trace = build_trace_cached(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=user_frequency,
                max_per_read=max_per_read,
            ),
            seed=seed,
        )
        result = run_scenario(trace, PolicyConfig.online(), faults=config.faults)
        wastes.append(compute_waste(result.stats))
    return sum(wastes) / len(wastes)


def run(
    config: Fig1Config = Fig1Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Regenerate Figure 1: waste % per (Max, user frequency)."""
    headers = ["Max"] + [f"uf={uf:g}" for uf in config.user_frequencies] + ["formula(uf=1)"]
    table = Table(
        title=(
            "Figure 1: waste due to overflow, on-line forwarding "
            f"(event frequency = {config.event_frequency:g}/day)"
        ),
        headers=headers,
        notes=[
            "cells: waste %; paper formula: 100*(1 - uf*Max/ef) clamped to [0, 100]",
        ],
    )
    wastes = iter(
        measure_grid(
            measure_point,
            [
                (config, user_frequency, max_per_read)
                for max_per_read in config.max_values
                for user_frequency in config.user_frequencies
            ],
            jobs=jobs,
        )
    )
    for max_per_read in config.max_values:
        row: List[object] = [max_per_read]
        for user_frequency in config.user_frequencies:
            waste = next(wastes)
            row.append(percent(waste))
            if progress is not None:
                progress(
                    f"fig1 Max={max_per_read} uf={user_frequency:g}: "
                    f"waste {percent(waste):.1f} %"
                )
        row.append(
            percent(
                expected_overflow_waste(1.0, max_per_read, config.event_frequency)
            )
        )
        table.add_row(*row)
    return table
