"""Moving averages over user behaviour.

The paper's Figure 7 relies on two running statistics: the moving
average of how many messages the user reads at a time (which sets the
prefetch limit) and the moving average of the interval between reads
(which sets the expiration threshold). "To help determine the prefetch
limit, a proxy needs to keep track of several past user reads and
calculate a moving average" (§3.2).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import ConfigurationError

#: Default number of past observations retained — "several past user
#: reads".
DEFAULT_WINDOW: int = 10


class MovingAverage:
    """Simple moving average over the last ``window`` observations.

    The running sum is updated incrementally (O(1) per push) but
    recomputed exactly from the window every ``window`` evictions:
    incremental add/subtract accumulates floating-point drift over
    millions of pushes, and the periodic :func:`math.fsum` rebase bounds
    the error to at most one window's worth of rounding.

    The window is a list-backed ring buffer rather than a deque: a fleet
    shard allocates several of these per device, and an empty list costs
    a fraction of a ``deque(maxlen=...)`` (whose ~640-byte block is also
    large enough to bypass pymalloc and fragment the heap at scale).
    """

    __slots__ = ("_window", "_values", "_start", "_sum", "_evictions")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be at least 1, got {window}")
        self._window = window
        self._values: List[float] = []
        self._start = 0  # index of the oldest observation once full
        self._sum = 0.0
        self._evictions = 0

    @property
    def window(self) -> int:
        return self._window

    @property
    def count(self) -> int:
        """Observations currently inside the window."""
        return len(self._values)

    def push(self, value: float) -> None:
        """Record one observation."""
        values = self._values
        # Evictions happen only once the window is full, so a pending
        # count answers without the len() call most pushes would make.
        if self._evictions or len(values) == self._window:
            start = self._start
            evicted = values[start]
            values[start] = value
            self._start = start + 1 if start + 1 < self._window else 0
            self._evictions += 1
            if self._evictions >= self._window:
                self._evictions = 0
                self._sum = math.fsum(values)
            else:
                self._sum += value - evicted
        else:
            values.append(value)
            self._sum += value

    @property
    def value(self) -> Optional[float]:
        """Current average, or None before the first observation."""
        if not self._values:
            return None
        return self._sum / len(self._values)

    def value_or(self, default: float) -> float:
        """Current average, or ``default`` before the first observation."""
        average = self.value
        return default if average is None else average

    def _ordered(self) -> List[float]:
        """Window contents, oldest first."""
        if self._start == 0:
            return list(self._values)
        return self._values[self._start :] + self._values[: self._start]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MovingAverage(window={self._window}, value={self.value})"


class IntervalAverage:
    """Moving average of the gaps between successive timestamps.

    This is the paper's ``moving_average_difference(topic.old_times)``:
    push read timestamps, read off the mean interval between reads.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._gaps = MovingAverage(window)
        self._last: Optional[float] = None

    @property
    def count(self) -> int:
        """Number of intervals (not timestamps) observed in the window."""
        return self._gaps.count

    @property
    def last(self) -> Optional[float]:
        """The newest timestamp recorded, or None before the first.

        Callers merging out-of-order logs (the proxy's offline read
        reports) consult this to skip timestamps the window already
        covers instead of tripping the non-decreasing check.
        """
        return self._last

    def push(self, timestamp: float) -> None:
        """Record one timestamp; out-of-order timestamps are rejected."""
        if self._last is not None:
            gap = timestamp - self._last
            if gap < 0:
                raise ConfigurationError(
                    f"timestamps must be non-decreasing (got {timestamp} after {self._last})"
                )
            self._gaps.push(gap)
        self._last = timestamp

    @property
    def value(self) -> Optional[float]:
        """Mean interval, or None until two timestamps are seen."""
        return self._gaps.value

    def value_or(self, default: float) -> float:
        return self._gaps.value_or(default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalAverage(value={self.value})"
