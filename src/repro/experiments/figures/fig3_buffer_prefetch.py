"""Figure 3 — loss and waste with buffer-based prefetching.

"In Figure 3 we show loss and waste with buffer-based prefetching under
different prefetch limits. As the limit increases from 1 to 16, the loss
percentage drops down very close to 0; as the limit goes beyond 64, the
waste percentage starts growing exponentially before leveling off at
50 %. […] Between 16 and 64, both waste and loss are below 1 %. The low
end of this range corresponds to the average number of messages a user
reads per day."

Two panels (loss, waste): one curve per network-outage level; x axis:
prefetch limit ∈ {1 … 65536}. Event frequency 32/day, Max = 8, user
frequency 2/day, no expirations.
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
from repro.units import YEAR

#: Paper's x axis (log scale, 1 … 65536).
PREFETCH_LIMITS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096, 16384, 65536,
)
#: Paper's curve family.
OUTAGE_FRACTIONS: Tuple[float, ...] = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


@dataclass(frozen=True)
class Fig3Config:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    prefetch_limits: Tuple[int, ...] = PREFETCH_LIMITS
    outage_fractions: Tuple[float, ...] = OUTAGE_FRACTIONS
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: Fig3Config, outage_fraction: float, prefetch_limit: int
) -> PairedMetrics:
    """Averaged paired metrics at one (outage, limit) point.

    Trace builds and on-line baseline runs are shared across the whole
    prefetch-limit sweep through the per-process caches (every limit
    evaluates against the same ``(scenario, seed)`` traces).
    """
    return averaged_metrics(
        paired_replicates(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=config.user_frequency,
                max_per_read=config.max_per_read,
                outage_fraction=outage_fraction,
            ),
            PolicyConfig.buffer(prefetch_limit=prefetch_limit),
            config.seeds,
            faults=config.faults,
        )
    )


def run(
    config: Fig3Config = Fig3Config(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Tuple[Table, Table]:
    """Regenerate both Figure 3 panels: (loss table, waste table)."""
    headers = ["limit"] + [f"outage={o:g}" for o in config.outage_fractions]
    subtitle = (
        f"(event frequency = {config.event_frequency:g}/day, "
        f"Max = {config.max_per_read}, user frequency = {config.user_frequency:g}/day)"
    )
    loss_table = Table(
        title=f"Figure 3 (top): loss with buffer-based prefetching {subtitle}",
        headers=headers,
        notes=["cells: loss %"],
    )
    waste_table = Table(
        title=f"Figure 3 (bottom): waste with buffer-based prefetching {subtitle}",
        headers=headers,
        notes=["cells: waste %"],
    )
    results = iter(
        measure_grid(
            measure_point,
            [
                (config, outage_fraction, limit)
                for limit in config.prefetch_limits
                for outage_fraction in config.outage_fractions
            ],
            jobs=jobs,
        )
    )
    for limit in config.prefetch_limits:
        loss_row: List[object] = [limit]
        waste_row: List[object] = [limit]
        for outage_fraction in config.outage_fractions:
            metrics = next(results)
            loss_row.append(percent(metrics.loss))
            waste_row.append(percent(metrics.waste))
            if progress is not None:
                progress(
                    f"fig3 limit={limit} outage={outage_fraction:g}: "
                    f"loss {metrics.loss_percent:.1f} % "
                    f"waste {metrics.waste_percent:.1f} %"
                )
        loss_table.add_row(*loss_row)
        waste_table.add_row(*waste_row)
    return loss_table, waste_table
