"""Delivery schedules: the paper's §2.2 interface refinements.

"There are a number of potential refinements to the user interface for
a topic, beyond a simple selector between on-line and on-demand display.
For example, one can envision a hybrid model in which an on-line topic
goes quiet (e.g. during a meeting) or an on-demand topic interrupts
(e.g. a tornado warning on a weather topic). On-line topics could be
configured to only deliver events at specific points during the day
with a certain Max number of messages per day."

A :class:`DeliverySchedule` attaches to a topic at the proxy:

* ``quiet_hours`` — daily windows during which an on-line topic defers
  pushes; deferred notifications are released when the window ends;
* ``max_pushes_per_day`` — a cap on proactive deliveries per virtual
  day; excess notifications fall back to on-demand handling;
* ``urgent_threshold`` — notifications at or above this rank interrupt
  even on an on-demand topic (pushed immediately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import DAY, HOUR


@dataclass(frozen=True)
class QuietHours:
    """Daily quiet windows, as (start hour, end hour) pairs in [0, 24].

    A window with start < end is quiet between those hours each day;
    windows may not overlap and must be sorted. Overnight quiet (e.g.
    22:00–07:00) is expressed as two windows: (22, 24) and (0, 7).
    """

    windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        # Tuples whatever sequence the caller passed: the on-line
        # baseline cache keys on the run keywords, schedule included.
        object.__setattr__(self, "windows", tuple(map(tuple, self.windows)))

    def validate(self) -> None:
        previous_end = 0.0
        for start, end in self.windows:
            if not 0.0 <= start < end <= 24.0:
                raise ConfigurationError(f"bad quiet window ({start}, {end})")
            if start < previous_end:
                raise ConfigurationError("quiet windows overlap or are unsorted")
            previous_end = end

    def quiet_end(self, time: float) -> Optional[float]:
        """Absolute time the current quiet window ends, or None if the
        given time is not quiet."""
        day_start = time - math.fmod(time, DAY)
        hour = (time - day_start) / HOUR
        for start, end in self.windows:
            if start <= hour < end:
                return day_start + end * HOUR
        return None


@dataclass(frozen=True)
class DeliverySchedule:
    """Per-topic delivery refinements (see module docstring)."""

    quiet_hours: Optional[QuietHours] = None
    max_pushes_per_day: Optional[int] = None
    urgent_threshold: Optional[float] = None

    def validate(self) -> None:
        if self.quiet_hours is not None:
            self.quiet_hours.validate()
        if self.max_pushes_per_day is not None and self.max_pushes_per_day < 0:
            raise ConfigurationError(
                f"max_pushes_per_day must be non-negative, "
                f"got {self.max_pushes_per_day}"
            )
        if self.urgent_threshold is not None and self.urgent_threshold < 0:
            raise ConfigurationError(
                f"urgent_threshold must be non-negative, got {self.urgent_threshold}"
            )

    def is_urgent(self, rank: float) -> bool:
        """Whether a notification interrupts regardless of topic mode."""
        return self.urgent_threshold is not None and rank >= self.urgent_threshold


class PushBudget:
    """Tracks the per-day push cap of a :class:`DeliverySchedule`.

    The counter resets lazily on the first push of each virtual day,
    which keeps the proxy free of extra timers.
    """

    def __init__(self, max_pushes_per_day: Optional[int]) -> None:
        self._cap = max_pushes_per_day
        self._day_index = -1
        self._used = 0

    def try_spend(self, now: float) -> bool:
        """Consume one push slot; False if today's budget is exhausted."""
        if self._cap is None:
            return True
        day_index = int(now // DAY)
        if day_index != self._day_index:
            self._day_index = day_index
            self._used = 0
        if self._used >= self._cap:
            return False
        self._used += 1
        return True

    def remaining(self, now: float) -> float:
        """Push slots left today (infinity when uncapped)."""
        if self._cap is None:
            return math.inf
        day_index = int(now // DAY)
        if day_index != self._day_index:
            return float(self._cap)
        return float(max(0, self._cap - self._used))
