"""Ablation (§3.4) — rank drops and the delay stage.

"On the last hop the lowering of a rank in combination with prefetching
can lead to overhead, since notifications may fall below the threshold
after being prefetched (needlessly). […] We instead propose that if a
topic sees rank reductions, all events may be optionally delayed for a
period of time long enough to separate the wheat from the chaff."

The workload publishes on a topic with subscription Threshold 2.5 and
demotes a configurable fraction of notifications below it shortly after
publication. We compare the unified policy with the delay stage off,
adaptive (driven by the observed drop-delay history), and static.
Metrics: waste, loss, retraction control messages, and the mean age of
read notifications (the timeliness the delay trades away).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    measure_grid,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.experiments.runner import run_paired
from repro.faults import FaultSpec
from repro.proxy.policies import PolicyConfig
from repro.units import HOUR, YEAR
from repro.workload.ranks import RankChangeConfig
from repro.workload.scenario import build_trace_cached

DROP_FRACTIONS: Tuple[float, ...] = (0.0, 0.1, 0.3)

#: Subscription threshold; drops land below it, retracting the message.
THRESHOLD: float = 2.5


def delay_variants() -> Dict[str, Optional[float]]:
    """Delay-stage settings under comparison (None = adaptive)."""
    return {
        "delay-off": 0.0,
        "delay-adaptive": None,
        "delay-2h": 2.0 * HOUR,
    }


@dataclass(frozen=True)
class AblationDelayConfig:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    outage_fraction: float = 0.3
    drop_fractions: Tuple[float, ...] = DROP_FRACTIONS
    #: Mean publication-to-drop delay ("bad messages are detected quickly").
    drop_delay_mean: float = HOUR
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


@dataclass(frozen=True)
class DelayPoint:
    """Measured outcome of one (drop fraction, delay setting) cell."""

    waste: float
    loss: float
    retractions: float
    dropped_before_forward: float
    mean_read_age_hours: float


def measure_point(
    config: AblationDelayConfig, drop_fraction: float, delay: Optional[float]
) -> DelayPoint:
    wastes: List[float] = []
    losses: List[float] = []
    retractions: List[float] = []
    dropped: List[float] = []
    ages: List[float] = []
    for seed in config.seeds:
        base = scenario(
            duration=config.duration,
            event_frequency=config.event_frequency,
            user_frequency=config.user_frequency,
            max_per_read=config.max_per_read,
            outage_fraction=config.outage_fraction,
        )
        base = replace(
            base,
            threshold=THRESHOLD,
            rank_changes=RankChangeConfig(
                drop_fraction=drop_fraction,
                drop_to_low=0.0,
                drop_to_high=THRESHOLD * 0.8,
                change_delay_mean=config.drop_delay_mean,
            ),
        )
        trace = build_trace_cached(base, seed=seed)
        policy = PolicyConfig.unified(delay=delay)
        result = run_paired(trace, policy, threshold=THRESHOLD, faults=config.faults)
        wastes.append(result.metrics.waste)
        losses.append(result.metrics.loss)
        retractions.append(float(result.policy.stats.retractions_sent))
        dropped.append(float(result.policy.stats.dropped_before_forward))
        ages.append(result.policy.stats.mean_read_age / HOUR)
    n = len(wastes)
    return DelayPoint(
        waste=sum(wastes) / n,
        loss=sum(losses) / n,
        retractions=sum(retractions) / n,
        dropped_before_forward=sum(dropped) / n,
        mean_read_age_hours=sum(ages) / n,
    )


def run(
    config: AblationDelayConfig = AblationDelayConfig(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    table = Table(
        title=(
            "Ablation: rank drops and the delay stage "
            f"(Threshold = {THRESHOLD}, outage "
            f"{percent(config.outage_fraction):.0f} %, drop delay mean "
            f"{config.drop_delay_mean / HOUR:.1f} h)"
        ),
        headers=[
            "drop_frac",
            "delay",
            "waste_%",
            "loss_%",
            "retractions",
            "dropped_pre_fwd",
            "read_age_h",
        ],
        notes=[
            "retractions: rank-drop control messages that crossed the last hop",
            "dropped_pre_fwd: demotions absorbed at the proxy before forwarding",
        ],
    )
    results = iter(
        measure_grid(
            measure_point,
            [
                (config, drop_fraction, delay)
                for drop_fraction in config.drop_fractions
                for delay in delay_variants().values()
            ],
            jobs=jobs,
        )
    )
    for drop_fraction in config.drop_fractions:
        for name, delay in delay_variants().items():
            point = next(results)
            table.add_row(
                drop_fraction,
                name,
                percent(point.waste),
                percent(point.loss),
                point.retractions,
                point.dropped_before_forward,
                point.mean_read_age_hours,
            )
            if progress is not None:
                progress(
                    f"ablation-delay drop={drop_fraction:g} {name}: "
                    f"waste {percent(point.waste):.1f} % "
                    f"retractions {point.retractions:.0f}"
                )
    return table
