"""Figure 6 — waste and loss vs the prefetch expiration threshold.

"We show how the system behaves with different values of this threshold
in Figure 6. For these experiments we used a challenging configuration:
network downtime of 90 %, user frequency of 2/day, and a set of
expiration times from 4.2 hours […] In each pair of curves, the waste
is high with short expiration thresholds (because many frivolous
messages get past the thresholds) but then sharply drops to zero.
Conversely, the loss is nonexistent at first, but then climbs up to a
high percentage and stabilizes there (too high of a threshold is as bad
as no prefetching at all). […] when the expiration time is an order of
magnitude higher than the time interval between reads, as in the case
of the 5.7-day curve, then there is a range of values where loss and
waste are very small […] That range includes the value of the interval
between reads, making it the natural choice for the expiration
threshold."

Curve pairs (waste, loss): one per mean expiration time in
{4.2 h, 2.8 d, 5.7 d, 11 d, 54 d}; x axis: the prefetch expiration
threshold 64 s … 1 M s. Unified policy with an adaptive prefetch limit
and the threshold pinned to the x value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    averaged_metrics,
    measure_grid,
    paired_replicates,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.faults import FaultSpec
from repro.metrics.waste_loss import PairedMetrics
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR, format_duration

#: Paper's x axis: 64 s … 1048576 s (~12 days), log scale.
THRESHOLDS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
)
#: Paper's curve family: "15360 s (4.2 hrs), 245760 s (2.8 days),
#: 491520 s (5.7 days), 983040 s (11 days), 3932160 s (54 days)".
EXPIRATION_MEANS: Tuple[float, ...] = (
    15360.0, 245760.0, 491520.0, 983040.0, 3932160.0,
)


@dataclass(frozen=True)
class Fig6Config:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    outage_fraction: float = 0.90
    thresholds: Tuple[float, ...] = THRESHOLDS
    expiration_means: Tuple[float, ...] = EXPIRATION_MEANS
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig6Config, expiration_mean: float, threshold: float
) -> PairedMetrics:
    """Averaged paired metrics at one (expiration, threshold) point.

    Every threshold on a curve shares the same ``(scenario, seed)``
    traces, so the per-process baseline LRU runs the on-line baseline
    once per trace for the whole threshold sweep.
    """
    return averaged_metrics(
        paired_replicates(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=config.user_frequency,
                max_per_read=config.max_per_read,
                outage_fraction=config.outage_fraction,
                expiration_mean=expiration_mean,
            ),
            PolicyConfig.unified(expiration_threshold=threshold),
            config.seeds,
            faults=config.faults,
        )
    )


def run(
    config: Fig6Config = Fig6Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Tuple[Table, Table]:
    """Regenerate Figure 6 as (waste table, loss table)."""
    headers = ["threshold_s"] + [
        f"exp={format_duration(mean)}" for mean in config.expiration_means
    ]
    subtitle = (
        f"(event frequency = {config.event_frequency:g}/day, "
        f"user frequency = {config.user_frequency:g}/day, "
        f"network outage {percent(config.outage_fraction):.0f} % of the time)"
    )
    waste_table = Table(
        title=f"Figure 6 (waste curves): expiration-threshold sweep {subtitle}",
        headers=headers,
        notes=["cells: waste %"],
    )
    loss_table = Table(
        title=f"Figure 6 (loss curves): expiration-threshold sweep {subtitle}",
        headers=headers,
        notes=["cells: loss %"],
    )
    results = iter(
        measure_grid(
            measure_point,
            [
                (config, expiration_mean, threshold)
                for threshold in config.thresholds
                for expiration_mean in config.expiration_means
            ],
            jobs=jobs,
        )
    )
    for threshold in config.thresholds:
        waste_row: List[object] = [threshold]
        loss_row: List[object] = [threshold]
        for expiration_mean in config.expiration_means:
            metrics = next(results)
            waste_row.append(percent(metrics.waste))
            loss_row.append(percent(metrics.loss))
            if progress is not None:
                progress(
                    f"fig6 threshold={threshold:g}s "
                    f"exp={format_duration(expiration_mean)}: "
                    f"waste {metrics.waste_percent:.1f} % "
                    f"loss {metrics.loss_percent:.1f} %"
                )
        waste_table.add_row(*waste_row)
        loss_table.add_row(*loss_row)
    return waste_table, loss_table
