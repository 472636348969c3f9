"""Diurnal (time-of-day) arrival intensity.

Real notification sources are not homogeneous: traffic updates cluster
around rush hours, news around the working day. A
:class:`DiurnalProfile` shapes the arrival process by a 24-hour
piecewise-constant intensity multiplier; generation uses the standard
thinning construction for non-homogeneous Poisson processes, so the
*daily* event frequency stays exactly as configured while the
within-day distribution follows the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.sim.trace import ArrivalColumns, ArrivalRecord, NEVER_EXPIRES
from repro.types import EventId
from repro.units import DAY, HOUR
from repro.workload import methods
from repro.workload._vector import poisson_process_times
from repro.workload.arrivals import ArrivalConfig, _draw_lifetime, _vector_lifetimes


@dataclass(frozen=True)
class DiurnalProfile:
    """Hourly relative intensities (24 values, any positive scale).

    The profile is normalized internally, so only the *shape* matters:
    ``flat()`` reproduces the homogeneous process; ``rush_hours()``
    matches the paper's traffic-update motivation.
    """

    hourly: Tuple[float, ...]

    def validate(self) -> None:
        if len(self.hourly) != 24:
            raise ConfigurationError(
                f"profile needs 24 hourly values, got {len(self.hourly)}"
            )
        if any(v < 0 for v in self.hourly):
            raise ConfigurationError("profile intensities must be non-negative")
        if sum(self.hourly) <= 0:
            raise ConfigurationError("profile must have positive total intensity")

    @classmethod
    def flat(cls) -> "DiurnalProfile":
        return cls(hourly=(1.0,) * 24)

    @classmethod
    def rush_hours(cls) -> "DiurnalProfile":
        """Morning and evening commute peaks, quiet nights."""
        hourly = [0.2] * 24
        for hour in (7, 8, 9):
            hourly[hour] = 3.0
        for hour in (15, 16, 17, 18):
            hourly[hour] = 2.5
        for hour in range(10, 15):
            hourly[hour] = 1.0
        return cls(hourly=tuple(hourly))

    @classmethod
    def working_day(cls) -> "DiurnalProfile":
        """Newsroom shape: active 08:00–20:00, trickle otherwise."""
        hourly = [0.3] * 24
        for hour in range(8, 20):
            hourly[hour] = 2.0
        return cls(hourly=tuple(hourly))

    # ------------------------------------------------------------------
    def relative_intensity(self, time: float) -> float:
        """Intensity multiplier at an absolute time, normalized so the
        daily mean is 1."""
        hour = int(math.fmod(time, DAY) // HOUR)
        mean = sum(self.hourly) / 24.0
        return self.hourly[hour] / mean

    def relative_intensity_array(self, times: np.ndarray) -> np.ndarray:
        """Batched :meth:`relative_intensity`."""
        hours = np.minimum(
            ((times % DAY) // HOUR).astype(np.int64), 23
        )
        mean = sum(self.hourly) / 24.0
        return np.asarray(self.hourly, dtype=np.float64)[hours] / mean

    @property
    def peak_multiplier(self) -> float:
        mean = sum(self.hourly) / 24.0
        return max(self.hourly) / mean


def _generate_scalar(
    config: ArrivalConfig,
    profile: DiurnalProfile,
    duration: float,
    rng: RandomSource,
    first_event_id: int,
) -> List[ArrivalRecord]:
    """Reference thinning loop (the original implementation)."""
    time_rng = rng.spawn("diurnal-times")
    keep_rng = rng.spawn("diurnal-thinning")
    rank_rng = rng.spawn("diurnal-ranks")
    expiry_rng = rng.spawn("diurnal-expirations")

    base_rate = config.events_per_day / DAY
    peak_rate = base_rate * profile.peak_multiplier
    arrivals: List[ArrivalRecord] = []
    next_id = first_event_id
    for t in time_rng.poisson_process(peak_rate, 0.0, duration):
        keep_probability = profile.relative_intensity(t) / profile.peak_multiplier
        if not keep_rng.bernoulli(keep_probability):
            continue
        rank = config.rank.draw(rank_rng)
        expires_at: Optional[float] = None
        if config.expiring_fraction > 0 and expiry_rng.bernoulli(config.expiring_fraction):
            expires_at = t + _draw_lifetime(config, expiry_rng)
        arrivals.append(
            ArrivalRecord(time=t, event_id=EventId(next_id), rank=rank, expires_at=expires_at)
        )
        next_id += 1
    return arrivals


def generate_diurnal_arrival_columns(
    config: ArrivalConfig,
    profile: DiurnalProfile,
    duration: float,
    rng: RandomSource,
    first_event_id: int = 0,
    method: Optional[str] = None,
) -> ArrivalColumns:
    """Generate arrivals whose intensity follows the diurnal profile.

    Thinning: candidates are drawn from a homogeneous process at the
    peak intensity and kept with probability proportional to the profile
    at their timestamp. Daily totals match ``config.events_per_day`` in
    expectation.
    """
    config.validate()
    profile.validate()
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if methods.resolve(method) == methods.SCALAR:
        return ArrivalColumns.from_records(
            _generate_scalar(config, profile, duration, rng, first_event_id)
        )

    time_gen = rng.spawn_numpy("diurnal-times")
    keep_gen = rng.spawn_numpy("diurnal-thinning")
    rank_gen = rng.spawn_numpy("diurnal-ranks")
    expiry_gen = rng.spawn_numpy("diurnal-expirations")

    peak = profile.peak_multiplier
    peak_rate = (config.events_per_day / DAY) * peak
    candidates = poisson_process_times(time_gen, peak_rate, duration)
    keep_probability = profile.relative_intensity_array(candidates) / peak
    times = candidates[keep_gen.random(candidates.size) < keep_probability]

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


def generate_diurnal_arrivals(
    config: ArrivalConfig,
    profile: DiurnalProfile,
    duration: float,
    rng: RandomSource,
    first_event_id: int = 0,
    method: Optional[str] = None,
) -> List[ArrivalRecord]:
    """Record-oriented view of :func:`generate_diurnal_arrival_columns`."""
    return list(
        generate_diurnal_arrival_columns(
            config, profile, duration, rng, first_event_id=first_event_id, method=method
        ).to_records()
    )

