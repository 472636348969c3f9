"""Forwarding-policy configuration.

The paper evaluates a spectrum of last-hop forwarding policies (§3.1):

* **on-line** — forward everything as soon as the network allows; the
  best possible quality of service and the loss baseline;
* **pure on-demand** — hold everything at the proxy until the user asks;
  zero waste by construction;
* **buffer-based prefetching** — keep at most ``prefetch_limit`` unread
  notifications on the device (§3.2, Figure 3);
* **rate-based prefetching** — forward a fraction of arrivals matching
  the consumption/production ratio (§3.2);
* **unified** — the Figure 7 algorithm: buffer-based with an adaptive
  limit, adaptive expiration threshold, and optional delay stage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.types import PolicyKind


@dataclass(frozen=True)
class PolicyConfig:
    """Configuration of one forwarding policy.

    ``prefetch_limit`` — static buffer limit; ignored by kinds that do
    not buffer-prefetch. ``None`` selects the adaptive limit (moving
    average of read sizes × ``adaptive_limit_multiplier``).

    ``expiration_threshold`` — notifications expiring sooner than this
    (seconds) are held at the proxy instead of prefetched. ``0`` disables
    holding; ``None`` selects the adaptive threshold (moving average of
    the interval between reads).

    ``delay`` — rank-instability delay stage: notifications wait this
    long before becoming prefetchable. ``0`` disables the stage; ``None``
    selects the adaptive delay computed from observed rank-drop history.
    """

    kind: PolicyKind = PolicyKind.UNIFIED
    prefetch_limit: Optional[int] = None
    expiration_threshold: Optional[float] = None
    delay: Optional[float] = 0.0
    #: "It is safe to set the prefetch limit to twice that amount" (§3.2).
    adaptive_limit_multiplier: float = 2.0
    #: Prefetch limit used before any read has been observed.
    initial_prefetch_limit: int = 16
    #: Expiration threshold used before two reads have been observed
    #: (only with adaptive thresholds).
    initial_expiration_threshold: float = 0.0
    #: Forward fraction assumed by the rate-based prefetcher before it
    #: has observed enough arrivals and reads to estimate the true ratio.
    initial_rate_ratio: float = 1.0
    #: Window (observations) of the proxy's moving averages.
    ma_window: int = 10

    def validate(self) -> None:
        # Types first: a NaN or infinite time would disable the stage it
        # sets or fail mid-run, and a limit or window is a count (bool is
        # an int subclass, never a knob value).
        for name in ("prefetch_limit", "initial_prefetch_limit", "ma_window"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in (
            "expiration_threshold", "initial_expiration_threshold", "delay",
            "adaptive_limit_multiplier",
        ):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.prefetch_limit is not None and self.prefetch_limit < 0:
            raise ConfigurationError(
                f"prefetch_limit must be non-negative, got {self.prefetch_limit}"
            )
        if self.expiration_threshold is not None and self.expiration_threshold < 0:
            raise ConfigurationError(
                f"expiration_threshold must be non-negative, got {self.expiration_threshold}"
            )
        if self.delay is not None and self.delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {self.delay}")
        if self.adaptive_limit_multiplier <= 0:
            raise ConfigurationError(
                f"adaptive_limit_multiplier must be positive, "
                f"got {self.adaptive_limit_multiplier}"
            )
        if self.initial_prefetch_limit < 0:
            raise ConfigurationError(
                f"initial_prefetch_limit must be non-negative, "
                f"got {self.initial_prefetch_limit}"
            )
        if not 0.0 <= self.initial_rate_ratio <= 1.0:
            raise ConfigurationError(
                f"initial_rate_ratio must be within [0, 1], got {self.initial_rate_ratio}"
            )
        if self.ma_window < 1:
            raise ConfigurationError(f"ma_window must be at least 1, got {self.ma_window}")
        if self.kind is PolicyKind.BUFFER and self.prefetch_limit is None:
            raise ConfigurationError("buffer policy requires a static prefetch_limit")

    # ------------------------------------------------------------------
    # Constructors for the paper's policies
    # ------------------------------------------------------------------
    @classmethod
    def online(cls) -> "PolicyConfig":
        """Forward everything as soon as the network allows (baseline)."""
        return cls(kind=PolicyKind.ONLINE, prefetch_limit=0,
                   expiration_threshold=0.0, delay=0.0)

    @classmethod
    def on_demand(cls) -> "PolicyConfig":
        """Pure on-demand: nothing is pushed; reads pull the best data."""
        return cls(kind=PolicyKind.ON_DEMAND, prefetch_limit=0,
                   expiration_threshold=0.0, delay=0.0)

    @classmethod
    def buffer(
        cls,
        prefetch_limit: int,
        expiration_threshold: float = 0.0,
        delay: float = 0.0,
    ) -> "PolicyConfig":
        """Buffer-based prefetching with a static limit (§3.2)."""
        return cls(
            kind=PolicyKind.BUFFER,
            prefetch_limit=prefetch_limit,
            expiration_threshold=expiration_threshold,
            delay=delay,
        )

    @classmethod
    def rate(cls, initial_ratio: float = 1.0, ma_window: int = 10) -> "PolicyConfig":
        """Rate-based prefetching (§3.2)."""
        return cls(
            kind=PolicyKind.RATE,
            prefetch_limit=0,
            expiration_threshold=0.0,
            delay=0.0,
            initial_rate_ratio=initial_ratio,
            ma_window=ma_window,
        )

    @classmethod
    def unified(
        cls,
        expiration_threshold: Optional[float] = None,
        delay: Optional[float] = 0.0,
        initial_prefetch_limit: int = 16,
        ma_window: int = 10,
    ) -> "PolicyConfig":
        """The full Figure 7 algorithm with adaptive prefetch limit.

        Pass a number for ``expiration_threshold`` to pin it (as the
        Figure 6 sweep does); the default ``None`` adapts it to the
        moving average interval between reads.
        """
        return cls(
            kind=PolicyKind.UNIFIED,
            prefetch_limit=None,
            expiration_threshold=expiration_threshold,
            delay=delay,
            initial_prefetch_limit=initial_prefetch_limit,
            ma_window=ma_window,
        )

    def describe(self) -> str:
        """Short human-readable label for reports."""
        if self.kind is PolicyKind.BUFFER:
            return f"buffer(limit={self.prefetch_limit})"
        if self.kind is PolicyKind.UNIFIED:
            threshold = (
                "adaptive" if self.expiration_threshold is None
                else f"{self.expiration_threshold:g}s"
            )
            return f"unified(threshold={threshold})"
        return self.kind.value
