"""Ablation (§3.5) — the unified adaptive algorithm vs hand-tuned knobs.

The paper's conclusion: with the Figure 7 algorithm — adaptive prefetch
limit (2 × moving-average read size) and adaptive expiration threshold
(moving-average read interval) — "vain traffic on the last hop can be
kept to a few percentage points of the overall traffic while the
quality of service remains high", without per-workload tuning.

We run the unified policy, a hand-tuned static buffer, and the two pure
policies across heterogeneous workloads (overflow-only, short/long
expirations, different outage levels) and report waste and loss per
cell. The unified policy should track the best static configuration
everywhere while never being configured for any workload specifically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.units import DAY, HOUR, YEAR
from repro.workload.scenario import ScenarioConfig


@dataclass(frozen=True)
class Workload:
    """One named evaluation workload."""

    name: str
    user_frequency: float
    max_per_read: int
    outage_fraction: float
    expiration_mean: Optional[float]


def workloads(duration: float) -> List[Tuple[Workload, ScenarioConfig]]:
    """The heterogeneous workload suite."""
    specs = [
        Workload("overflow/low-outage", 2.0, 8, 0.1, None),
        Workload("overflow/high-outage", 2.0, 8, 0.9, None),
        Workload("rare-reader", 0.5, 16, 0.5, None),
        Workload("short-expiry", 2.0, 8, 0.5, 4.0 * HOUR),
        Workload("long-expiry", 2.0, 8, 0.9, 5.7 * DAY),
    ]
    configs = []
    for spec in specs:
        configs.append(
            (
                spec,
                scenario(
                    duration=duration,
                    event_frequency=EVENT_FREQUENCY,
                    user_frequency=spec.user_frequency,
                    max_per_read=spec.max_per_read,
                    outage_fraction=spec.outage_fraction,
                    expiration_mean=spec.expiration_mean,
                ),
            )
        )
    return configs


def policies() -> Dict[str, PolicyConfig]:
    return {
        "unified": PolicyConfig.unified(),
        "buffer-16": PolicyConfig.buffer(prefetch_limit=16),
        "on-demand": PolicyConfig.on_demand(),
        "online": PolicyConfig.online(),
    }


@dataclass(frozen=True)
class AblationUnifiedConfig:
    duration: float = YEAR
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


def measure_cell(
    config: AblationUnifiedConfig, scenario_config: ScenarioConfig, policy: PolicyConfig
) -> PairedMetrics:
    return averaged_metrics(
        paired_replicates(scenario_config, policy, config.seeds, faults=config.faults)
    )


def run(
    config: AblationUnifiedConfig = AblationUnifiedConfig(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    table = Table(
        title="Ablation: unified adaptive algorithm across heterogeneous workloads",
        headers=["workload", "policy", "waste_%", "loss_%"],
        notes=[
            "unified uses no per-workload tuning: limit = 2*MA(read size), "
            "threshold = MA(read interval)",
        ],
    )
    results = iter(
        measure_grid(
            measure_cell,
            [
                (config, scenario_config, policy)
                for _spec, scenario_config in workloads(config.duration)
                for policy in policies().values()
            ],
            jobs=jobs,
        )
    )
    for spec, scenario_config in workloads(config.duration):
        for name, policy in policies().items():
            metrics = next(results)
            table.add_row(
                spec.name, name, percent(metrics.waste), percent(metrics.loss)
            )
            if progress is not None:
                progress(
                    f"ablation-unified {spec.name} {name}: "
                    f"waste {metrics.waste_percent:.1f} % "
                    f"loss {metrics.loss_percent:.1f} %"
                )
    return table
