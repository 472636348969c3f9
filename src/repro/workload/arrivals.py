"""Notification arrival generation.

The paper: "Events on a topic arrive a certain number of times per day
(event frequency), according to a Poisson distribution. Optionally, a
portion of the events can be configured to expire within expiration
time, according to a desired distribution (exponential, uniform,
normal)."

Two implementations produce the same distributions (see
:mod:`repro.workload.methods`): the default vectorized path pre-draws
every arrival time, rank, and lifetime as numpy arrays from named
:class:`numpy.random.Generator` substreams; the scalar path is the
original per-event loop kept as the reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.sim.trace import ArrivalRecord, ArrivalColumns, NEVER_EXPIRES
from repro.types import EventId
from repro.units import DAY
from repro.workload import methods
from repro.workload._vector import (
    poisson_process_times,
    positive_uniform,
    truncated_normal,
)
from repro.workload.ranks import RankDistribution


class ExpirationDistribution(enum.Enum):
    """Shape of the notification-lifetime distribution."""

    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"
    NORMAL = "normal"
    FIXED = "fixed"


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameters of the notification arrival process.

    ``events_per_day`` is the paper's *event frequency*. With
    ``expiring_fraction`` > 0, that portion of notifications receives a
    lifetime drawn from ``expiration_distribution`` with mean
    ``expiration_mean`` seconds.
    """

    events_per_day: float = 32.0
    rank: RankDistribution = RankDistribution()
    expiring_fraction: float = 0.0
    expiration_mean: float = DAY
    expiration_distribution: ExpirationDistribution = ExpirationDistribution.EXPONENTIAL
    #: Spread parameter: std for NORMAL, half-width factor for UNIFORM
    #: (lifetimes drawn from mean * [1-spread, 1+spread]).
    expiration_spread: float = 0.5

    def validate(self) -> None:
        if not 0.0 <= self.events_per_day < math.inf:
            raise ConfigurationError(
                f"events_per_day must be finite and non-negative, got "
                f"{self.events_per_day}"
            )
        if not 0.0 <= self.expiring_fraction <= 1.0:
            raise ConfigurationError(
                f"expiring_fraction must be within [0, 1], got {self.expiring_fraction}"
            )
        if self.expiring_fraction > 0 and self.expiration_mean <= 0:
            raise ConfigurationError(
                f"expiration_mean must be positive, got {self.expiration_mean}"
            )
        if not 0.0 <= self.expiration_spread <= 1.0:
            raise ConfigurationError(
                f"expiration_spread must be within [0, 1], got {self.expiration_spread}"
            )
        self.rank.validate()


def _draw_lifetime(config: ArrivalConfig, rng: RandomSource) -> float:
    """Draw one notification lifetime in seconds (always positive).

    The uniform band is ``mean ± spread * mean`` with non-positive draws
    rejected and redrawn — NOT clamped: clamping the low edge (the old
    behavior) shifted the realized mean above ``expiration_mean``
    whenever the clamp point fell inside the band (tiny means, spread
    near 1).
    """
    mean = config.expiration_mean
    dist = config.expiration_distribution
    if dist is ExpirationDistribution.FIXED:
        return mean
    if dist is ExpirationDistribution.EXPONENTIAL:
        return rng.exponential(mean)
    if dist is ExpirationDistribution.UNIFORM:
        half = config.expiration_spread * mean
        for _ in range(64):
            value = rng.uniform(mean - half, mean + half)
            if value > 0.0:
                return value
        return mean  # 64 draws of exactly the band edge: not reachable
    # NORMAL: truncate at a tiny positive lifetime.
    return rng.truncated_normal(
        mean, config.expiration_spread * mean, low=1e-9, high=mean * 10.0
    )


def _vector_lifetimes(
    config: ArrivalConfig, gen: "np.random.Generator", size: int
) -> np.ndarray:
    """Batched :func:`_draw_lifetime` (same distributions, numpy engine)."""
    mean = config.expiration_mean
    dist = config.expiration_distribution
    if dist is ExpirationDistribution.FIXED:
        return np.full(size, mean)
    if dist is ExpirationDistribution.EXPONENTIAL:
        return gen.exponential(mean, size=size)
    if dist is ExpirationDistribution.UNIFORM:
        half = config.expiration_spread * mean
        return positive_uniform(gen, mean - half, mean + half, size)
    return truncated_normal(
        gen, mean, config.expiration_spread * mean, 1e-9, mean * 10.0, size
    )


def _generate_scalar(
    config: ArrivalConfig,
    duration: float,
    rng: RandomSource,
    first_event_id: int,
) -> List[ArrivalRecord]:
    """Reference per-event loop (the original implementation)."""
    time_rng = rng.spawn("arrival-times")
    rank_rng = rng.spawn("arrival-ranks")
    expiry_rng = rng.spawn("arrival-expirations")

    arrivals: List[ArrivalRecord] = []
    next_id = first_event_id
    rate = config.events_per_day / DAY
    for t in time_rng.poisson_process(rate, 0.0, duration):
        rank = config.rank.draw(rank_rng)
        expires_at: Optional[float] = None
        if config.expiring_fraction > 0 and expiry_rng.bernoulli(config.expiring_fraction):
            expires_at = t + _draw_lifetime(config, expiry_rng)
        arrivals.append(
            ArrivalRecord(time=t, event_id=EventId(next_id), rank=rank, expires_at=expires_at)
        )
        next_id += 1
    return arrivals


def generate_arrival_columns(
    config: ArrivalConfig,
    duration: float,
    rng: RandomSource,
    first_event_id: int = 0,
    method: Optional[str] = None,
) -> ArrivalColumns:
    """Generate the arrival stream for one trace, as columnar arrays.

    Event ids are assigned sequentially starting at ``first_event_id`` so
    that multiple topics in one trace can share an id space.
    """
    config.validate()
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if methods.resolve(method) == methods.SCALAR:
        return ArrivalColumns.from_records(
            _generate_scalar(config, duration, rng, first_event_id)
        )

    time_gen = rng.spawn_numpy("arrival-times")
    rank_gen = rng.spawn_numpy("arrival-ranks")
    expiry_gen = rng.spawn_numpy("arrival-expirations")

    times = poisson_process_times(time_gen, config.events_per_day / DAY, duration)
    count = times.size
    ranks = config.rank.draw_array(rank_gen, count)
    expires_at = np.full(count, NEVER_EXPIRES)
    if config.expiring_fraction > 0 and count:
        expiring = expiry_gen.random(count) < config.expiring_fraction
        n_expiring = int(expiring.sum())
        if n_expiring:
            expires_at[expiring] = times[expiring] + _vector_lifetimes(
                config, expiry_gen, n_expiring
            )
    event_ids = np.arange(first_event_id, first_event_id + count, dtype=np.int64)
    return ArrivalColumns.build(times, event_ids, ranks, expires_at)


def generate_arrivals(
    config: ArrivalConfig,
    duration: float,
    rng: RandomSource,
    first_event_id: int = 0,
    method: Optional[str] = None,
) -> List[ArrivalRecord]:
    """Record-oriented view of :func:`generate_arrival_columns`."""
    return list(
        generate_arrival_columns(
            config, duration, rng, first_event_id=first_event_id, method=method
        ).to_records()
    )
