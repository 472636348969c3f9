"""Per-phase timing and counter probes for the experiment pipeline.

The figure pipeline has three coarse phases per cell — trace build,
on-line baseline run, and policy-variant run. :data:`PROBES`
accumulates wall-clock time and call counts per phase, plus free-form
counters (cache hits, runs, events processed), so a slow grid can be
attributed to the phase that actually ate the time.

Probes are process-local and disabled by default; every instrumented
site costs a single ``enabled`` check when off. They are intentionally
wall-clock (``time.perf_counter``) rather than simulated-time: the
question they answer is "where did my real seconds go".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass(frozen=True)
class PhaseSummary:
    """Accumulated cost of one phase."""

    name: str
    calls: int
    total_seconds: float


class PhaseProbes:
    """Accumulates per-phase wall time and named counters."""

    __slots__ = ("enabled", "_phases", "_counters")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: phase name -> [calls, total seconds]
        self._phases: Dict[str, List[float]] = {}
        self._counters: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase execution (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            entry = self._phases.get(name)
            if entry is None:
                entry = self._phases[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += time.perf_counter() - started

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a named counter (no-op when disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + delta

    # ------------------------------------------------------------------
    def phases(self) -> List[PhaseSummary]:
        """Summaries of every timed phase, most expensive first."""
        return sorted(
            (
                PhaseSummary(name=name, calls=int(calls), total_seconds=total)
                for name, (calls, total) in self._phases.items()
            ),
            key=lambda s: -s.total_seconds,
        )

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def reset(self) -> None:
        self._phases.clear()
        self._counters.clear()

    def summary(self) -> Dict[str, object]:
        """JSON-friendly snapshot: phases plus counters."""
        return {
            "phases": {
                s.name: {"calls": s.calls, "seconds": s.total_seconds}
                for s in self.phases()
            },
            "counters": self.counters(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"PhaseProbes({state}, {len(self._phases)} phases)"


#: The process-wide probe registry every instrumented site consults.
PROBES = PhaseProbes()

