"""Prefetching strategies for the last hop.

Two approaches from §3.2, "both work by suppressing of the forwarding of
some notifications and both choose the highest-ranking notifications
when they do forward":

* :class:`BufferPrefetcher` — "the proxy ensures that the client device
  never has more than a fixed prefetch limit of notifications in its
  buffer"; the unified variant adapts the limit to twice the moving
  average of read sizes.
* :class:`RatePrefetcher` — "the proxy dynamically calculates the ratio
  between the event arrival rate and the read rate of the user. The
  ratio is used to forward messages with a certain frequency."
"""

from __future__ import annotations

import math
from typing import Optional

from repro.proxy.moving_average import IntervalAverage
from repro.proxy.policies import PolicyConfig
from repro.proxy.state import TopicState
from repro.types import PolicyKind


class BufferPrefetcher:
    """Computes the effective prefetch limit for buffer-style policies."""

    def __init__(self, policy: PolicyConfig) -> None:
        self._policy = policy
        #: The limit of every kind whose limit never moves; None under
        #: UNIFIED, whose limit follows the observed read sizes.
        self._fixed: Optional[int]
        if policy.kind is PolicyKind.UNIFIED:
            self._fixed = None
        elif policy.kind is PolicyKind.BUFFER:
            self._fixed = policy.prefetch_limit or 0
        else:
            self._fixed = 0

    def effective_limit(self, state: TopicState) -> int:
        """Current prefetch limit given the policy and observed reads."""
        fixed = self._fixed
        if fixed is not None:
            return fixed
        return self.limit_for(state.old_reads.value)

    def limit_for(self, mean_read: Optional[float]) -> int:
        """The limit for a binding known only by its read-size average
        (None before its first read) — all :meth:`effective_limit`
        reads of a binding, so array-resident fleet bindings (which
        have no :class:`TopicState`) share the formula."""
        fixed = self._fixed
        if fixed is not None:
            return fixed
        # UNIFIED: topic.prefetch_limit = moving_average(old_reads) * 2.
        policy = self._policy
        if mean_read is None:
            return policy.initial_prefetch_limit
        return max(1, int(round(mean_read * policy.adaptive_limit_multiplier)))


class RatePrefetcher:
    """Credit-based rate matcher.

    Each accepted arrival earns ``ratio`` credits, where ``ratio`` is the
    estimated consumption/production rate ratio; whole credits release
    the highest-ranked queued notification for forwarding. With a ratio
    of 0.2, forwarding therefore "takes place at the arrival of every
    5th message", as the paper describes.
    """

    def __init__(self, policy: PolicyConfig) -> None:
        self._policy = policy
        self._credit = 0.0
        self._arrival_intervals = IntervalAverage(max(2, policy.ma_window))

    @property
    def credit(self) -> float:
        """Accumulated fractional forwarding credit."""
        return self._credit

    def observe_arrival(self, now: float) -> None:
        """Record one accepted arrival (for the production-rate estimate)."""
        self._arrival_intervals.push(now)

    def ratio(self, state: TopicState) -> float:
        """Estimated consumption/production ratio, clamped to [0, 1].

        Production rate comes from the moving average arrival interval;
        consumption rate from the moving averages of read size and read
        interval. Before both are observed, the configured initial ratio
        applies.
        """
        arrival_interval = self._arrival_intervals.value
        read_interval = state.mean_read_interval
        read_size = state.mean_read_size
        if arrival_interval is None or read_interval is None or read_size is None:
            return self._policy.initial_rate_ratio
        if read_interval <= 0 or arrival_interval <= 0:
            return 1.0
        production = 1.0 / arrival_interval
        consumption = read_size / read_interval
        if production <= 0:
            return 1.0
        return min(1.0, max(0.0, consumption / production))

    def earn(self, state: TopicState) -> int:
        """Earn credit for one arrival; return whole credits to spend."""
        self._credit += self.ratio(state)
        whole = int(math.floor(self._credit))
        self._credit -= whole
        return whole
