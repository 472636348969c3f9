"""Scenario configuration and trace building.

A :class:`ScenarioConfig` bundles every knob of the paper's simulator —
event frequency, user frequency, Max/Threshold, expirations, outages,
rank changes, and the run length — with the paper's defaults. Calling
:func:`build_trace` produces the randomized-but-frozen set of discrete
events that both forwarding-policy scenarios replay.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace, TraceColumns
from repro.units import DAY, YEAR
from repro.workload.arrivals import ArrivalConfig, generate_arrival_columns
from repro.workload.outages import OutageConfig, generate_outage_columns
from repro.workload.ranks import RankChangeConfig, generate_rank_change_columns
from repro.workload.reads import ReadConfig, generate_read_columns


#: Most events of one process a device may expect over a run. Far more
#: than memory holds, and far inside the ~9.2e18 that numpy's Poisson
#: and array-size limits take, even after a fleet's per-device rate
#: multipliers.
MAX_EXPECTED_EVENTS = 1e12


def check_expected_counts(
    duration: float,
    arrivals: ArrivalConfig,
    reads: ReadConfig,
    outages: OutageConfig,
) -> None:
    """Reject finite rates whose per-device event count no draw can take.

    Call after the nested configs validated, so every rate is finite.
    """
    per_day = {
        "events_per_day": arrivals.events_per_day,
        "reads_per_day": reads.reads_per_day,
        "outages_per_day": (
            outages.outages_per_day if outages.downtime_fraction > 0 else 0.0
        ),
    }
    for name, rate in per_day.items():
        expected = rate * duration / DAY
        if expected > MAX_EXPECTED_EVENTS:
            raise ConfigurationError(
                f"{name}={rate:g} over {duration / DAY:g} days expects "
                f"{expected:.3g} events per device, more than "
                f"{MAX_EXPECTED_EVENTS:g}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated client/topic/proxy scenario.

    Defaults follow the paper's baseline configuration: a one-year run,
    event frequency 32/day, user frequency 2/day, Max 8, Threshold 0.
    """

    duration: float = YEAR
    seed: int = 0
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    reads: ReadConfig = field(default_factory=ReadConfig)
    outages: OutageConfig = field(default_factory=OutageConfig)
    rank_changes: RankChangeConfig = field(default_factory=RankChangeConfig)
    #: Subscriber's qualitative limit: only notifications with rank at or
    #: above this threshold are acceptable (paper §2.2).
    threshold: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.duration < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, got {self.duration}"
            )
        self.arrivals.validate()
        self.reads.validate()
        self.outages.validate()
        self.rank_changes.validate()
        check_expected_counts(
            self.duration, self.arrivals, self.reads, self.outages
        )
        if self.threshold < 0:
            raise ConfigurationError(f"threshold must be non-negative, got {self.threshold}")

    # Convenience accessors mirroring the paper's vocabulary -------------
    @property
    def event_frequency(self) -> float:
        """Notification arrivals per day."""
        return self.arrivals.events_per_day

    @property
    def user_frequency(self) -> float:
        """User reads per day."""
        return self.reads.reads_per_day

    @property
    def max_per_read(self) -> int:
        """The subscription's Max: items read at a time."""
        return self.reads.read_count

    def with_changes(self, **changes: object) -> "ScenarioConfig":
        """Return a copy with top-level fields replaced (sweep helper)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def build_trace(config: ScenarioConfig, seed: Optional[int] = None) -> Trace:
    """Generate the frozen randomized event set for one scenario.

    ``seed`` overrides ``config.seed`` when given, making replication
    sweeps (same config, many seeds) convenient. The returned trace is
    validated and carries the achieved downtime fraction in its
    metadata, since the outage process is stochastic.
    """
    config.validate()
    rng = RandomSource(config.seed if seed is None else seed)
    arrivals = generate_arrival_columns(
        config.arrivals, config.duration, rng.spawn("arrivals")
    )
    reads = generate_read_columns(config.reads, config.duration, rng.spawn("reads"))
    outages = generate_outage_columns(
        config.outages, config.duration, rng.spawn("outages")
    )
    rank_changes = generate_rank_change_columns(
        config.rank_changes, arrivals, config.duration, rng.spawn("rank-changes")
    )
    trace = Trace(
        duration=config.duration,
        columns=TraceColumns(
            arrivals=arrivals,
            reads=reads,
            outages=outages,
            rank_changes=rank_changes,
        ),
        metadata={
            "seed": rng.seed,
            "event_frequency": config.event_frequency,
            "user_frequency": config.user_frequency,
            "max_per_read": config.max_per_read,
            "threshold": config.threshold,
            "target_downtime": config.outages.downtime_fraction,
        },
    )
    trace.validate()
    trace.metadata["achieved_downtime"] = trace.downtime_fraction()
    return trace


#: Per-process LRU of built traces, keyed by (config, seed). A paired
#: sweep runs the baseline and the policy on the same trace, and curve
#: families often sweep a policy knob against a fixed scenario, so the
#: same (config, seed) trace is requested many times in a row.
_TRACE_CACHE: "OrderedDict[Tuple[ScenarioConfig, int], Trace]" = OrderedDict()

#: Traces kept per process. A one-year trace is ~10k rows of columnar
#: float64/int64 arrays, so even the full cache stays a few megabytes.
TRACE_CACHE_SIZE: int = 32


def build_trace_cached(config: ScenarioConfig, seed: Optional[int] = None) -> Trace:
    """:func:`build_trace` behind a small per-process LRU cache.

    Trace generation is deterministic in ``(config, seed)``, so a cache
    hit returns the exact trace a fresh build would produce. Callers
    must treat the returned trace as frozen (the runner already does:
    each run materializes its own Notification objects). Faults act at
    run time and never change a trace, so runs under any fault spec
    share one entry; :func:`repro.experiments.runner.run_baseline` keys
    its results on the spec each call passes (a null spec as None).
    """
    key = (config, config.seed if seed is None else seed)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        return cached
    trace = build_trace(config, seed=seed)
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > TRACE_CACHE_SIZE:
        _TRACE_CACHE.popitem(last=False)
    return trace


def clear_trace_cache() -> None:
    """Drop every cached trace (tests and long-lived processes)."""
    _TRACE_CACHE.clear()
