"""Figure 5 — loss due to expirations under pure on-demand forwarding.

"When expiration time is short relative to user frequency, loss is
negligible because most notifications expire before the user gets to
them […] As the expiration time increases, so does the percentage of
loss, because notifications that expire during a network outage are
potentially readable under on-line forwarding, but not under on-demand
forwarding. […] as the expiration time increases, notifications stick
around long enough to be picked up eventually with on-demand
forwarding, so the loss percentage starts dropping back down. This is
illustrated in Figure 5, where loss is shown for different expiration
times on a network that is down 95 % of the time."

Curves: one per user frequency in {1 … 64}; x axis: mean expiration
time 16 s … 262144 s. Event frequency 32/day, Max = 8, outage 95 %.
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

EXPIRATION_MEANS: Tuple[float, ...] = (
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
)
USER_FREQUENCIES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class Fig5Config:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    max_per_read: int = 8
    outage_fraction: float = 0.95
    expiration_means: Tuple[float, ...] = EXPIRATION_MEANS
    user_frequencies: Tuple[float, ...] = USER_FREQUENCIES
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig5Config, user_frequency: float, expiration_mean: float
) -> float:
    """Measured on-demand loss fraction at one point."""
    replicates = paired_replicates(
        scenario(
            duration=config.duration,
            event_frequency=config.event_frequency,
            user_frequency=user_frequency,
            max_per_read=config.max_per_read,
            outage_fraction=config.outage_fraction,
            expiration_mean=expiration_mean,
        ),
        PolicyConfig.on_demand(),
        config.seeds,
        faults=config.faults,
    )
    return mean([m.loss for m in replicates])


def run(
    config: Fig5Config = Fig5Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Regenerate Figure 5: loss % per (expiration mean, user frequency)."""
    headers = ["expiration_s"] + [f"uf={uf:g}" for uf in config.user_frequencies]
    table = Table(
        title=(
            "Figure 5: loss due to expirations, pure on-demand "
            f"(event frequency = {config.event_frequency:g}/day, "
            f"Max = {config.max_per_read}, "
            f"network outage {percent(config.outage_fraction):.0f} % of the time)"
        ),
        headers=headers,
        notes=["cells: loss % relative to the on-line baseline on the same trace"],
    )
    losses = iter(
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
            loss = next(losses)
            row.append(percent(loss))
            if progress is not None:
                progress(
                    f"fig5 exp={expiration_mean:g}s uf={user_frequency:g}: "
                    f"loss {percent(loss):.1f} %"
                )
        table.add_row(*row)
    return table
