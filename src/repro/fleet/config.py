"""Fleet scenario configuration.

A :class:`FleetScenarioConfig` describes a whole population of devices
behind one proxy: the baseline workload knobs (the same
arrival/read/outage/rank-change processes as a single-device
:class:`~repro.workload.scenario.ScenarioConfig`) plus the heterogeneity
knobs that make each device an individual — per-device activity-rate
multipliers, a discrete volume-limit (Max) mix, per-device awake-window
offsets, and per-device outage severity.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import check_expected_counts

#: Fields that must hold a finite real number (never a bool).
_REAL_FIELDS = (
    "duration", "threshold", "rate_sigma", "read_rate_sigma",
    "downtime_sigma", "wake_hour_spread",
)

#: Nested workload configs and the class each must be an instance of.
_NESTED_FIELDS = (
    ("arrivals", ArrivalConfig),
    ("reads", ReadConfig),
    ("outages", OutageConfig),
    ("rank_changes", RankChangeConfig),
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FleetScenarioConfig:
    """Full description of one fleet campaign.

    The nested workload configs give the *population means*; each device
    draws its own rates around them. ``seed`` drives both the
    fleet-level substreams and the per-device fault seeds
    (``derive_seed(seed, "device-<d>")``), so a campaign is a pure
    function of this config.
    """

    devices: int = 1000
    duration: float = DAY
    seed: int = 0
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    reads: ReadConfig = field(default_factory=ReadConfig)
    outages: OutageConfig = field(default_factory=OutageConfig)
    rank_changes: RankChangeConfig = field(default_factory=RankChangeConfig)
    #: Subscriber's qualitative limit, applied at every binding.
    threshold: float = 0.0

    # -- heterogeneity ---------------------------------------------------
    #: Lognormal sigma of per-device arrival-rate multipliers (mean 1).
    rate_sigma: float = 0.5
    #: Lognormal sigma of per-device read-rate multipliers (mean 1).
    read_rate_sigma: float = 0.35
    #: Discrete mix of per-device volume limits (the subscription Max);
    #: each device draws one uniformly.
    volume_limits: Tuple[int, ...] = (4, 8, 16)
    #: Lognormal sigma of per-device downtime-fraction multipliers
    #: (mean 1, product clamped to 0.95).
    downtime_sigma: float = 0.75
    #: Uniform half-width (hours) of per-device wake-hour offsets.
    wake_hour_spread: float = 3.0

    def validate(self) -> None:
        # Types first: sweep axes, grid files and tune bases set fields
        # from JSON, which can hold any of its types in any field.
        for name in ("devices", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        for name, kind in _NESTED_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be of type {kind.__name__}, got {value!r}"
                )
        if not isinstance(self.volume_limits, tuple) or not all(
            _is_int(limit) for limit in self.volume_limits
        ):
            raise ConfigurationError(
                f"volume_limits must be a tuple of integers, got "
                f"{self.volume_limits!r}"
            )

        if self.devices < 1:
            raise ConfigurationError(
                f"devices must be at least 1, got {self.devices}"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        self.arrivals.validate()
        self.reads.validate()
        self.outages.validate()
        self.rank_changes.validate()
        check_expected_counts(
            self.duration, self.arrivals, self.reads, self.outages
        )
        if self.threshold < 0:
            raise ConfigurationError(
                f"threshold must be non-negative, got {self.threshold}"
            )
        for name in ("rate_sigma", "read_rate_sigma", "downtime_sigma",
                     "wake_hour_spread"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {value}"
                )
        if not self.volume_limits:
            raise ConfigurationError("volume_limits must not be empty")
        for limit in self.volume_limits:
            if limit < 1:
                raise ConfigurationError(
                    f"volume limits must be at least 1, got {limit}"
                )

    def with_changes(self, **changes: object) -> "FleetScenarioConfig":
        """Return a copy with top-level fields replaced (sweep helper)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]
