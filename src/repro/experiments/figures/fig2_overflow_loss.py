"""Figure 2 — loss due to overflow under pure on-demand forwarding.

"In Figure 2 we show what those losses are at different levels of
network availability. As the portion of the time that the network is
unavailable increases, the losses grow exponentially to the point just
below 100 %, before dropping back to 0 at the point of no connectivity
(on-line and on-demand policies are equally powerless at that point)."

Curves: one per user frequency in {0.25 … 64}; x axis: network outage
fraction ∈ [0, 1]. Event frequency 32/day, Max = 8, no expirations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    measure_grid,
    mean,
    paired_replicates,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.faults import FaultSpec
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR

#: Paper's x axis: cumulative outage fractions (plus the endpoints the
#: text highlights: just below 1, and exactly 1).
OUTAGE_FRACTIONS: Tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0,
)
#: Paper's curve family.
USER_FREQUENCIES: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class Fig2Config:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    max_per_read: int = 8
    outage_fractions: Tuple[float, ...] = OUTAGE_FRACTIONS
    user_frequencies: Tuple[float, ...] = USER_FREQUENCIES
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig2Config, user_frequency: float, outage_fraction: float
) -> float:
    """Measured loss fraction of pure on-demand at one point."""
    replicates = paired_replicates(
        scenario(
            duration=config.duration,
            event_frequency=config.event_frequency,
            user_frequency=user_frequency,
            max_per_read=config.max_per_read,
            outage_fraction=outage_fraction,
        ),
        PolicyConfig.on_demand(),
        config.seeds,
        faults=config.faults,
    )
    return mean([m.loss for m in replicates])


def run(
    config: Fig2Config = Fig2Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Regenerate Figure 2: loss % per (outage fraction, user frequency)."""
    headers = ["outage"] + [f"uf={uf:g}" for uf in config.user_frequencies]
    table = Table(
        title=(
            "Figure 2: loss due to overflow, pure on-demand forwarding "
            f"(event frequency = {config.event_frequency:g}/day, "
            f"Max = {config.max_per_read})"
        ),
        headers=headers,
        notes=["cells: loss % relative to the on-line baseline on the same trace"],
    )
    losses = iter(
        measure_grid(
            measure_point,
            [
                (config, user_frequency, outage_fraction)
                for outage_fraction in config.outage_fractions
                for user_frequency in config.user_frequencies
            ],
            jobs=jobs,
        )
    )
    for outage_fraction in config.outage_fractions:
        row: List[object] = [outage_fraction]
        for user_frequency in config.user_frequencies:
            loss = next(losses)
            row.append(percent(loss))
            if progress is not None:
                progress(
                    f"fig2 outage={outage_fraction:g} uf={user_frequency:g}: "
                    f"loss {percent(loss):.1f} %"
                )
        table.add_row(*row)
    return table
