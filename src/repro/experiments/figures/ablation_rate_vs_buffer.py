"""Ablation (§3.2 text) — rate-based vs buffer-based prefetching.

"We experimented with two prefetching approaches in the attempt to find
a compromise between waste and loss due to overload. […] We found that
both approaches were good at reducing waste and loss to a few
percentage points, but the buffer-based approach turned out to be more
effective and, incidentally, simpler."

This ablation runs the full policy spectrum — on-line, pure on-demand,
rate-based, buffer-based (static limit 16 = 2 × uf·Max), and the unified
adaptive algorithm — on the overflow workload at several outage levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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

OUTAGE_FRACTIONS: Tuple[float, ...] = (0.0, 0.3, 0.7, 0.9)


def policies() -> Dict[str, PolicyConfig]:
    """The policy spectrum under comparison."""
    return {
        "online": PolicyConfig.online(),
        "on-demand": PolicyConfig.on_demand(),
        "rate": PolicyConfig.rate(),
        "buffer-16": PolicyConfig.buffer(prefetch_limit=16),
        "unified": PolicyConfig.unified(),
    }


@dataclass(frozen=True)
class AblationRateConfig:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    outage_fractions: Tuple[float, ...] = OUTAGE_FRACTIONS
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_point(
    config: AblationRateConfig, outage_fraction: float, policy: PolicyConfig
) -> PairedMetrics:
    return averaged_metrics(
        paired_replicates(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=config.user_frequency,
                max_per_read=config.max_per_read,
                outage_fraction=outage_fraction,
            ),
            policy,
            config.seeds,
            faults=config.faults,
        )
    )


def run(
    config: AblationRateConfig = AblationRateConfig(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Waste/loss per (policy, outage level)."""
    table = Table(
        title=(
            "Ablation: rate-based vs buffer-based prefetching "
            f"(event frequency = {config.event_frequency:g}/day, "
            f"Max = {config.max_per_read}, "
            f"user frequency = {config.user_frequency:g}/day)"
        ),
        headers=["policy", "outage", "waste_%", "loss_%"],
        notes=[
            "paper: both prefetchers reach a few percentage points; "
            "buffer-based is more effective",
        ],
    )
    results = iter(
        measure_grid(
            measure_point,
            [
                (config, outage_fraction, policy)
                for policy in policies().values()
                for outage_fraction in config.outage_fractions
            ],
            jobs=jobs,
        )
    )
    for name, policy in policies().items():
        for outage_fraction in config.outage_fractions:
            metrics = next(results)
            table.add_row(
                name,
                outage_fraction,
                percent(metrics.waste),
                percent(metrics.loss),
            )
            if progress is not None:
                progress(
                    f"ablation-rate {name} outage={outage_fraction:g}: "
                    f"waste {metrics.waste_percent:.1f} % "
                    f"loss {metrics.loss_percent:.1f} %"
                )
    return table
