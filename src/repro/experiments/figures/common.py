"""Shared constants and helpers for the figure modules.

The paper's evaluation fixes event frequency at 32 notifications/day
("without loss of generality") and runs each experiment for one virtual
year. Outage granularity is not stated beyond "Poisson distribution with
high variance" (which describes the outage *frequency*); we use four
outage episodes per day in expectation with moderately dispersed
durations (lognormal sigma 0.5). This reproduces the published claim
that a 16–64 message prefetch buffer keeps loss near zero across outage
levels — heavier-tailed episode durations would require proportionally
larger buffers, a sensitivity the benchmarks expose separately.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.experiments.parallel import parallel_map
from repro.experiments.runner import run_paired
from repro.faults import FaultSpec
from repro.metrics.waste_loss import PairedMetrics
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR
from repro.workload.arrivals import ArrivalConfig, ExpirationDistribution
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace_cached

#: The paper's fixed event frequency (notifications per day).
EVENT_FREQUENCY: float = 32.0

#: Outage episodes per day (see module docstring).
OUTAGES_PER_DAY: float = 4.0

#: Lognormal shape of outage durations (see module docstring).
OUTAGE_DURATION_SIGMA: float = 0.5

#: Read request size for "Max = ∞" experiments (paper Figure 4): the
#: user reads everything available.
MAX_UNLIMITED: int = 2**31 - 1


def scenario(
    duration: float = YEAR,
    event_frequency: float = EVENT_FREQUENCY,
    user_frequency: float = 2.0,
    max_per_read: int = 8,
    outage_fraction: float = 0.0,
    expiration_mean: Optional[float] = None,
    expiration_distribution: ExpirationDistribution = ExpirationDistribution.EXPONENTIAL,
    seed: int = 0,
) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` in the paper's vocabulary."""
    arrivals = ArrivalConfig(
        events_per_day=event_frequency,
        expiring_fraction=0.0 if expiration_mean is None else 1.0,
        expiration_mean=expiration_mean if expiration_mean is not None else 1.0,
        expiration_distribution=expiration_distribution,
    )
    reads = ReadConfig(reads_per_day=user_frequency, read_count=max_per_read)
    outages = OutageConfig(
        downtime_fraction=outage_fraction,
        outages_per_day=OUTAGES_PER_DAY,
        duration_sigma=OUTAGE_DURATION_SIGMA,
    )
    return ScenarioConfig(
        duration=duration, seed=seed, arrivals=arrivals, reads=reads, outages=outages
    )


def measure_grid(
    measure: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """Shared figure entry point: evaluate ``measure(*task)`` per cell.

    Every figure module funnels its measurement grid through here, so
    one ``jobs`` knob fans any figure across worker processes (results
    always return in task order — the tables are identical for any
    ``jobs``). ``measure`` must be a module-level function and the task
    elements picklable when ``jobs`` exceeds 1; the frozen ``*Config``
    dataclasses the figure modules pass satisfy that. Cells ship to
    workers in contiguous chunks of automatic size, which amortizes IPC
    and keeps each worker's per-process trace and baseline LRUs hot
    across neighbouring cells.
    """
    return parallel_map(measure, tasks, jobs=jobs)


def paired_replicates(
    config: ScenarioConfig,
    policy: PolicyConfig,
    seeds: Sequence[int],
    threshold: float = 0.0,
    faults: Optional[FaultSpec] = None,
) -> List[PairedMetrics]:
    """Paired metrics for each seed replica of one scenario/policy cell.

    Routes through :func:`repro.experiments.runner.run_paired`, whose
    per-process baseline LRU shares the on-line baseline run across
    every policy variant evaluated against the same trace/threshold/
    fault spec, so a policy sweep simulates each baseline once. Both
    halves of every pair run under ``faults`` (None = fault-free).
    """
    metrics: List[PairedMetrics] = []
    for seed in seeds:
        with obs.PROBES.phase("trace-build"):
            trace = build_trace_cached(config, seed=seed)
        metrics.append(
            run_paired(trace, policy, threshold=threshold, faults=faults).metrics
        )
    return metrics


def averaged_metrics(replicates: Sequence[PairedMetrics]) -> PairedMetrics:
    """Collapse seed replicas into one record, averaging waste and loss.

    Matches the figure modules' historical arithmetic exactly: waste and
    loss are arithmetic means; the remaining diagnostic fields are taken
    from the last replica.
    """
    if not replicates:
        raise ValueError("averaged_metrics of empty sequence")
    last = replicates[-1]
    return PairedMetrics(
        waste=sum(m.waste for m in replicates) / len(replicates),
        loss=sum(m.loss for m in replicates) / len(replicates),
        baseline_waste=last.baseline_waste,
        forwarded=last.forwarded,
        messages_read=last.messages_read,
        baseline_read=last.baseline_read,
    )


def percent(fraction: float) -> float:
    """Render a [0, 1] fraction as a percentage value."""
    return 100.0 * fraction


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
