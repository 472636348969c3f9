"""Sampled invariant auditing of live runs.

The property-test suite already checks the Figure 7 structural
invariants after randomized operation sequences, but real (year-long)
runs execute millions of proxy transitions unaudited. An
:class:`Auditor` closes that gap: the proxy calls
:meth:`Auditor.maybe_audit` after every transition (NOTIFICATION, READ,
NETWORK, and the expiration/delay/quiet timers), and every ``interval``
transitions the auditor runs the full invariant battery —
:func:`repro.proxy.invariants.check_topic_state` plus the engine-level
checks of :meth:`repro.sim.engine.Simulator.audit` — against the live
state.

On a violation it raises
:class:`~repro.proxy.invariants.InvariantViolation` with the most recent
trace records attached (``exc.trace_context``), so the failure names not
just *what* broke but the delivery-path events that led up to it.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.records import ObsRecord, as_dict
from repro.obs.recorder import TraceRecorder
from repro.proxy.invariants import InvariantViolation, check_topic_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.proxy.state import TopicState
    from repro.sim.engine import Simulator

#: How many trailing trace records a violation carries as context.
DEFAULT_CONTEXT: int = 32


class Auditor:
    """Samples proxy transitions and asserts the structural invariants.

    ``interval=1`` audits every transition (the CI smoke setting);
    larger intervals amortize the O(queued) invariant sweep over more
    transitions for production-sized runs. The auditor may be shared by
    several runs in sequence — it keeps only counters.
    """

    __slots__ = ("interval", "transitions", "audits", "_countdown", "_recorder")

    def __init__(
        self, interval: int = 1, recorder: Optional[TraceRecorder] = None
    ) -> None:
        if interval < 1:
            raise ConfigurationError(f"audit interval must be >= 1, got {interval}")
        self.interval = interval
        self._countdown = interval
        self._recorder = recorder
        #: Proxy transitions observed (audited or not).
        self.transitions = 0
        #: Full invariant sweeps performed.
        self.audits = 0

    def maybe_audit(self, sim: "Simulator", state: "TopicState") -> None:
        """Count one transition; audit when the sampling interval is due."""
        self.transitions += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.interval
        self.audit(sim, state)

    def audit(self, sim: "Simulator", state: "TopicState") -> None:
        """Run the full invariant battery now; raise on any violation."""
        self.audits += 1
        violations = check_topic_state(state, sim.now)
        violations.extend(sim.audit())
        if violations:
            self._raise(state, sim.now, violations)

    def _raise(self, state: "TopicState", now: float, violations: List[str]) -> None:
        context: List[ObsRecord] = (
            self._recorder.last(DEFAULT_CONTEXT) if self._recorder is not None else []
        )
        lines = [
            f"topic {state.topic!r} violates invariants at t={now:.3f} "
            f"(transition {self.transitions}):"
        ]
        lines.extend(f"  {violation}" for violation in violations)
        if context:
            lines.append(f"  last {len(context)} trace records:")
            lines.extend(f"    {as_dict(record)}" for record in context)
        error = InvariantViolation("\n".join(lines))
        error.violations = list(violations)
        error.trace_context = tuple(context)
        raise error
