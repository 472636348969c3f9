"""The rank-instability delay stage (paper §3.4).

"We instead propose that if a topic sees rank reductions, all events may
be optionally delayed for a period of time long enough to separate the
wheat from the chaff. […] It is clear that this delay would be computed
based on the expiration history of past events, but finding the right
formula demands data from a deployed pub/sub system."

The paper leaves the formula open; we provide a reasonable one — a high
percentile of recently observed publication-to-drop delays, zero while
no drops have been observed.
"""

from __future__ import annotations

import math
from typing import List

from repro.units import DAY

#: Recent drop delays the percentile is taken over.
DROP_WINDOW: int = 50
#: Nearest-rank percentile of the window that sets the delay.
DELAY_PERCENTILE: float = 0.95
#: Cap on the recommended delay.
MAX_DELAY: float = DAY


class DelayTracker:
    """Observes rank-drop history on a topic and recommends a delay.

    ``record_publication`` and ``record_drop`` are fed by the proxy;
    ``current_delay`` is the paper's ``delay_function(topic.history)``.
    """

    def __init__(self) -> None:
        # List-backed ring (oldest at _drop_start once full): cheaper to
        # allocate than a deque, which matters with one tracker per
        # fleet binding.
        self._drop_delays: List[float] = []
        self._drop_start = 0
        self._publications = 0
        self._drops = 0

    @property
    def publications(self) -> int:
        """Accepted publications observed on the topic."""
        return self._publications

    @property
    def drops(self) -> int:
        """Rank reductions observed on the topic."""
        return self._drops

    @property
    def drop_fraction(self) -> float:
        """Observed fraction of publications later demoted."""
        if self._publications == 0:
            return 0.0
        return self._drops / self._publications

    def record_publication(self) -> None:
        self._publications += 1

    def record_drop(self, publication_to_drop_delay: float) -> None:
        """Record that a rank drop arrived ``delay`` seconds after its
        event was published."""
        self._drops += 1
        delay = max(0.0, publication_to_drop_delay)
        if len(self._drop_delays) == DROP_WINDOW:
            start = self._drop_start
            self._drop_delays[start] = delay
            self._drop_start = start + 1 if start + 1 < DROP_WINDOW else 0
        else:
            self._drop_delays.append(delay)

    def current_delay(self) -> float:
        """Recommended delay before events become prefetchable.

        Zero until a drop has been observed ("assuming that bad messages
        are detected quickly" there is no reason to delay a topic that
        never retracts); afterwards, the :data:`DELAY_PERCENTILE` of the
        last :data:`DROP_WINDOW` drop delays, capped at :data:`MAX_DELAY`.
        """
        if not self._drop_delays:
            return 0.0
        ordered = sorted(self._drop_delays)
        # Nearest-rank percentile: ceil(p·n) − 1; int(p·n) is biased
        # high (over 20 samples it picks the max).
        index = max(0, min(len(ordered) - 1,
                           math.ceil(DELAY_PERCENTILE * len(ordered)) - 1))
        return min(MAX_DELAY, ordered[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DelayTracker(drops={self._drops}/{self._publications}, "
            f"delay={self.current_delay():.0f}s)"
        )
