"""User read schedule generation.

The paper: "The user checks for new messages a certain number of times
per day chosen from a normal distribution (user frequency), which are
distributed randomly throughout the 16- to 17-hour period, also slightly
randomized, that the user is awake."

Two implementations (see :mod:`repro.workload.methods`): the default
vectorized path draws every day's read count, wake offset, and awake
length as numpy arrays and expands them into one sorted time column; the
scalar path is the original per-day loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.sim.trace import ReadColumns, ReadRecord
from repro.units import AWAKE_HOURS_MAX, AWAKE_HOURS_MIN, DAY, HOUR, MINUTE
from repro.workload import methods
from repro.workload._vector import integers_with_mean


@dataclass(frozen=True)
class ReadConfig:
    """Parameters of the user read process.

    ``reads_per_day`` is the paper's *user frequency*; fractional values
    (e.g. 0.25 — one read every four days) are honoured in expectation.
    ``read_count`` is the number of items requested per read, normally
    the subscription's Max.
    """

    reads_per_day: float = 2.0
    read_count: int = 8
    #: Relative std of the daily read-count normal distribution.
    daily_std_fraction: float = 0.25
    #: Nominal wake-up hour (local time within the virtual day).
    wake_hour: float = 7.0
    #: Std of the daily wake-up jitter, seconds.
    wake_jitter_std: float = 30.0 * MINUTE

    def validate(self) -> None:
        if not 0.0 <= self.reads_per_day < math.inf:
            raise ConfigurationError(
                f"reads_per_day must be finite and non-negative, got "
                f"{self.reads_per_day}"
            )
        if self.read_count < 1:
            raise ConfigurationError(f"read_count must be at least 1, got {self.read_count}")
        if self.daily_std_fraction < 0:
            raise ConfigurationError(
                f"daily_std_fraction must be non-negative, got {self.daily_std_fraction}"
            )
        if not 0.0 <= self.wake_hour < 24.0:
            raise ConfigurationError(f"wake_hour must be within [0, 24), got {self.wake_hour}")
        if self.wake_jitter_std < 0:
            raise ConfigurationError(
                f"wake_jitter_std must be non-negative, got {self.wake_jitter_std}"
            )

    @property
    def mean_read_interval(self) -> float:
        """Average seconds between reads (∞-safe only for positive rates)."""
        if self.reads_per_day <= 0:
            return math.inf
        return DAY / self.reads_per_day


def _generate_scalar(
    config: ReadConfig, duration: float, rng: RandomSource
) -> List[float]:
    """Reference per-day loop returning the sorted read times."""
    count_rng = rng.spawn("read-counts")
    time_rng = rng.spawn("read-times")

    times: List[float] = []
    n_days = int(math.ceil(duration / DAY))
    std = config.daily_std_fraction * config.reads_per_day
    for day in range(n_days):
        day_start = day * DAY
        count = count_rng.integer_with_mean(config.reads_per_day, std)
        if count == 0:
            continue
        wake = (
            day_start
            + config.wake_hour * HOUR
            + time_rng.normal(0.0, config.wake_jitter_std)
        )
        awake_length = time_rng.uniform(AWAKE_HOURS_MIN * HOUR, AWAKE_HOURS_MAX * HOUR)
        times.extend(time_rng.uniform(wake, wake + awake_length) for _ in range(count))
    # Sort the *whole* stream, not per day: a late-jittered awake window
    # overlaps the next day's early-jittered one, so per-day sorting can
    # leave the concatenated stream non-monotonic (then rejected by
    # Trace.validate).
    return sorted(t for t in times if 0.0 <= t < duration)


def _generate_vectorized(
    config: ReadConfig, duration: float, rng: RandomSource
) -> np.ndarray:
    """Batched draws: one row per day, expanded by per-day read counts."""
    count_gen = rng.spawn_numpy("read-counts")
    time_gen = rng.spawn_numpy("read-times")

    n_days = int(math.ceil(duration / DAY))
    std = config.daily_std_fraction * config.reads_per_day
    counts = integers_with_mean(count_gen, config.reads_per_day, std, n_days)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64)

    day_starts = np.arange(n_days, dtype=np.float64) * DAY
    wakes = (
        day_starts
        + config.wake_hour * HOUR
        + time_gen.normal(0.0, config.wake_jitter_std, size=n_days)
    )
    awake_lengths = time_gen.uniform(
        AWAKE_HOURS_MIN * HOUR, AWAKE_HOURS_MAX * HOUR, size=n_days
    )
    day_index = np.repeat(np.arange(n_days), counts)
    times = wakes[day_index] + time_gen.random(total) * awake_lengths[day_index]
    times = np.sort(times)
    return times[(times >= 0.0) & (times < duration)]


def generate_read_columns(
    config: ReadConfig,
    duration: float,
    rng: RandomSource,
    method: Optional[str] = None,
) -> ReadColumns:
    """Generate the user read schedule for one trace, as columnar arrays.

    For every virtual day, a read count is drawn from a truncated normal
    around ``reads_per_day`` (fractional part resolved by a Bernoulli
    trial so means below one work); read times are uniform inside that
    day's awake window, whose start is jittered and whose length is
    drawn between 16 and 17 hours. The final stream is globally sorted.
    """
    config.validate()
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if methods.resolve(method) == methods.SCALAR:
        times = np.asarray(_generate_scalar(config, duration, rng), dtype=np.float64)
    else:
        times = _generate_vectorized(config, duration, rng)
    return ReadColumns.build(
        times, np.full(times.size, config.read_count, dtype=np.int64)
    )


def generate_reads(
    config: ReadConfig,
    duration: float,
    rng: RandomSource,
    method: Optional[str] = None,
) -> List[ReadRecord]:
    """Record-oriented view of :func:`generate_read_columns`."""
    return list(generate_read_columns(config, duration, rng, method=method).to_records())
