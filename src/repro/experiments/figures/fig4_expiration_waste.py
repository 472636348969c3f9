"""Figure 4 — waste due to expirations (Max = ∞, on-line forwarding).

"If we assume for now that the user is willing to process all
notifications in the queue every time (i.e. Max = ∞), then the fraction
of wasteful notifications is determined by event frequency, mean
expiration time, and user frequency. […] most short-lasting
notifications typically expire before the user gets to them, but when
the user checks messages with frequency below the expiration time,
waste disappears."

Curves: one per user frequency in {1 … 64}; x axis: mean expiration
time from 16 s to 262144 s (~3 days). Event frequency 32/day, on-line
policy, no outages, every notification expires (exponential lifetimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    MAX_UNLIMITED,
    measure_grid,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.experiments.runner import run_scenario
from repro.faults import FaultSpec
from repro.metrics.waste_loss import compute_waste
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR
from repro.workload.scenario import build_trace_cached

#: Paper's x axis: 16 s … 262144 s, log scale.
EXPIRATION_MEANS: Tuple[float, ...] = (
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
)
#: Paper's curve family.
USER_FREQUENCIES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class Fig4Config:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    expiration_means: Tuple[float, ...] = EXPIRATION_MEANS
    user_frequencies: Tuple[float, ...] = USER_FREQUENCIES
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig4Config, user_frequency: float, expiration_mean: float
) -> float:
    """Measured waste fraction at one (user frequency, expiration) point."""
    wastes: List[float] = []
    for seed in config.seeds:
        trace = build_trace_cached(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=user_frequency,
                max_per_read=MAX_UNLIMITED,
                expiration_mean=expiration_mean,
            ),
            seed=seed,
        )
        result = run_scenario(trace, PolicyConfig.online(), faults=config.faults)
        wastes.append(compute_waste(result.stats))
    return sum(wastes) / len(wastes)


def run(
    config: Fig4Config = Fig4Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Regenerate Figure 4: waste % per (expiration mean, user frequency)."""
    headers = ["expiration_s"] + [f"uf={uf:g}" for uf in config.user_frequencies]
    table = Table(
        title=(
            "Figure 4: waste due to expirations, on-line forwarding, Max = ∞ "
            f"(event frequency = {config.event_frequency:g}/day)"
        ),
        headers=headers,
        notes=["cells: waste %; lifetimes exponential with the given mean"],
    )
    wastes = iter(
        measure_grid(
            measure_point,
            [
                (config, user_frequency, expiration_mean)
                for expiration_mean in config.expiration_means
                for user_frequency in config.user_frequencies
            ],
            jobs=jobs,
        )
    )
    for expiration_mean in config.expiration_means:
        row: List[object] = [expiration_mean]
        for user_frequency in config.user_frequencies:
            waste = next(wastes)
            row.append(percent(waste))
            if progress is not None:
                progress(
                    f"fig4 exp={expiration_mean:g}s uf={user_frequency:g}: "
                    f"waste {percent(waste):.1f} %"
                )
        table.add_row(*row)
    return table
