"""Ablation (§2.2 refinements) — delivery schedules on an on-line topic.

"On-line topics could be configured to only deliver events at specific
points during the day with a certain Max number of messages per day."

An on-line topic (32 events/day, pushed as they arrive) is run under a
sweep of daily push caps, with and without night-time quiet hours
(23:00–07:00). Capped-out and quiet-deferred notifications fall back to
on-demand handling, so the user still reads them — later. We report:

* interruptions/day — pushes that actually reached the device;
* waste — pushed notifications never read;
* loss — against the uncapped on-line baseline;
* read age — the timeliness the schedule trades away.
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
from repro.metrics.waste_loss import pair_metrics
from repro.proxy.policies import PolicyConfig
from repro.proxy.schedule import DeliverySchedule, QuietHours
from repro.types import TopicType
from repro.units import DAY, HOUR, YEAR
from repro.workload.scenario import build_trace_cached

PUSH_CAPS: Tuple[Optional[int], ...] = (None, 32, 16, 8, 4)

#: Night-time quiet: 23:00–24:00 and 00:00–07:00.
NIGHT = QuietHours(windows=((0.0, 7.0), (23.0, 24.0)))


@dataclass(frozen=True)
class AblationScheduleConfig:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    outage_fraction: float = 0.1
    push_caps: Tuple[Optional[int], ...] = PUSH_CAPS
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


@dataclass(frozen=True)
class SchedulePoint:
    pushes_per_day: float
    waste: float
    loss: float
    read_age_hours: float


def measure_point(
    config: AblationScheduleConfig,
    cap: Optional[int],
    quiet: bool,
) -> SchedulePoint:
    pushes: List[float] = []
    wastes: List[float] = []
    losses: List[float] = []
    ages: List[float] = []
    schedule = DeliverySchedule(
        quiet_hours=NIGHT if quiet else None,
        max_pushes_per_day=cap,
    )
    for seed in config.seeds:
        trace = build_trace_cached(
            scenario(
                duration=config.duration,
                event_frequency=config.event_frequency,
                user_frequency=config.user_frequency,
                max_per_read=config.max_per_read,
                outage_fraction=config.outage_fraction,
            ),
            seed=seed,
        )
        # Baseline: the UNSCHEDULED on-line topic (the best service).
        baseline = run_scenario(
            trace,
            PolicyConfig.online(),
            topic_type=TopicType.ONLINE,
            faults=config.faults,
        )
        scheduled = run_scenario(
            trace,
            PolicyConfig.unified(),
            topic_type=TopicType.ONLINE,
            schedule=schedule,
            faults=config.faults,
        )
        metrics = pair_metrics(baseline.stats, scheduled.stats)
        stats = scheduled.stats
        days = config.duration / DAY
        pushes.append(stats.pushed / days)
        wastes.append(metrics.waste)
        losses.append(metrics.loss)
        ages.append(stats.mean_read_age / HOUR)
    count = len(pushes)
    return SchedulePoint(
        pushes_per_day=sum(pushes) / count,
        waste=sum(wastes) / count,
        loss=sum(losses) / count,
        read_age_hours=sum(ages) / count,
    )


def run(
    config: AblationScheduleConfig = AblationScheduleConfig(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    table = Table(
        title=(
            "Ablation: delivery schedules on an on-line topic "
            f"(event frequency = {config.event_frequency:g}/day, "
            f"user frequency = {config.user_frequency:g}/day, "
            f"outage {percent(config.outage_fraction):.0f} %)"
        ),
        headers=["cap/day", "quiet", "pushes/day", "waste_%", "loss_%", "read_age_h"],
        notes=[
            "capped-out and quiet-deferred notifications fall back to "
            "on-demand handling (still readable, later)",
        ],
    )
    results = iter(
        measure_grid(
            measure_point,
            [
                (config, cap, quiet)
                for cap in config.push_caps
                for quiet in (False, True)
            ],
            jobs=jobs,
        )
    )
    for cap in config.push_caps:
        for quiet in (False, True):
            point = next(results)
            table.add_row(
                "∞" if cap is None else cap,
                "night" if quiet else "-",
                point.pushes_per_day,
                percent(point.waste),
                percent(point.loss),
                point.read_age_hours,
            )
            if progress is not None:
                progress(
                    f"ablation-schedule cap={cap} quiet={quiet}: "
                    f"{point.pushes_per_day:.1f} pushes/day, "
                    f"waste {percent(point.waste):.1f} %"
                )
    return table
