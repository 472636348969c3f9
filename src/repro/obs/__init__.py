"""Runtime observability: structured tracing, invariant audits, probes.

Three cooperating pieces, all off by default and individually cheap:

* :class:`~repro.obs.recorder.TraceRecorder` — a bounded ring buffer of
  typed delivery-path records (:mod:`repro.obs.records`) the proxy
  appends to, exportable as JSONL (the CLI's ``--trace-out``);
* :class:`~repro.obs.audit.Auditor` — sampled invariant auditing of
  live runs (the CLI's ``--audit[=N]``): every N proxy transitions the
  full structural-invariant battery runs against the live state, and a
  violation raises with the trailing trace records attached;
* :data:`~repro.obs.probes.PROBES` — per-phase wall-clock/counter
  probes over the experiment pipeline (trace-build, baseline,
  variant), summarized by :func:`summarize_obs`.

The pieces are wired process-globally via :func:`configure`, so the
experiment runner picks them up without threading parameters through
every figure module, and the parallel executor can re-apply the same
configuration inside worker processes. When nothing is configured,
every instrumented site reduces to a single ``if`` on a ``None`` or a
false flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.audit import DEFAULT_CONTEXT, Auditor
from repro.obs.probes import PROBES, PhaseProbes, PhaseSummary
from repro.obs.recorder import DEFAULT_CAPACITY, TraceRecorder, load_jsonl
from repro.obs.records import (
    BudgetExhaustRecord,
    CrashRecord,
    DeliveryDropRecord,
    DuplicateDeliveryRecord,
    ExpireAtProxyRecord,
    ForwardRecord,
    ObsRecord,
    QuietDeferRecord,
    RankChangeRecord,
    ReadExchangeRecord,
    RECORD_TYPES,
    RecoverRecord,
    RetractRecord,
    as_dict,
)
from repro.proxy.invariants import InvariantViolation

__all__ = [
    "Auditor",
    "BudgetExhaustRecord",
    "CrashRecord",
    "DEFAULT_CAPACITY",
    "DEFAULT_CONTEXT",
    "DeliveryDropRecord",
    "DuplicateDeliveryRecord",
    "ExpireAtProxyRecord",
    "ForwardRecord",
    "InvariantViolation",
    "ObsConfig",
    "ObsContext",
    "ObsRecord",
    "PROBES",
    "PhaseProbes",
    "PhaseSummary",
    "QuietDeferRecord",
    "RECORD_TYPES",
    "RankChangeRecord",
    "ReadExchangeRecord",
    "RecoverRecord",
    "RetractRecord",
    "TraceRecorder",
    "active",
    "active_config",
    "as_dict",
    "configure",
    "load_jsonl",
    "summarize_obs",
]


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability settings (shippable to worker processes).

    ``audit_interval`` of N audits every Nth proxy transition (None =
    no auditing). ``trace_capacity`` bounds the trace ring (None = no
    explicit tracing; a default-sized ring is still created when
    auditing wants context records). ``probes`` enables the per-phase
    timing/counter probes.
    """

    audit_interval: Optional[int] = None
    trace_capacity: Optional[int] = None
    probes: bool = False

    @property
    def enabled(self) -> bool:
        return (
            self.audit_interval is not None
            or self.trace_capacity is not None
            or self.probes
        )


class ObsContext:
    """The live recorder/auditor pair built from an :class:`ObsConfig`."""

    __slots__ = ("config", "recorder", "auditor")

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        capacity = config.trace_capacity
        if capacity is None and config.audit_interval is not None:
            # Auditing wants trailing context even without --trace-out.
            capacity = DEFAULT_CAPACITY
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(capacity) if capacity is not None else None
        )
        self.auditor: Optional[Auditor] = (
            Auditor(interval=config.audit_interval, recorder=self.recorder)
            if config.audit_interval is not None
            else None
        )


_active: Optional[ObsContext] = None


def configure(config: Optional[ObsConfig]) -> Optional[ObsContext]:
    """(Re)configure process-wide observability; returns the context.

    ``None`` (or a config with everything off) disables observability
    and resets the probe registry. Reconfiguring replaces the recorder
    and auditor, so prior trace records are dropped.
    """
    global _active
    if config is None or not config.enabled:
        _active = None
        PROBES.enabled = False
        PROBES.reset()
        return None
    _active = ObsContext(config)
    PROBES.enabled = config.probes
    PROBES.reset()
    return _active


def active() -> Optional[ObsContext]:
    """The currently configured context, or None when observability is off."""
    return _active


def active_config() -> Optional[ObsConfig]:
    """The active configuration (for propagation to worker processes)."""
    return None if _active is None else _active.config


def summarize_obs() -> dict:
    """One JSON-friendly snapshot of everything observability collected.

    Combines the probe registry's phase timings and counters with the
    active recorder's ring statistics and the auditor's sampling
    counters. Safe to call with observability off (returns the empty
    probe summary).
    """
    summary = PROBES.summary()
    counters = summary["counters"]
    ctx = _active
    if ctx is not None:
        if ctx.recorder is not None:
            counters["trace-records"] = ctx.recorder.recorded
            counters["trace-held"] = len(ctx.recorder)
            counters["trace-dropped"] = ctx.recorder.dropped
        if ctx.auditor is not None:
            counters["audit-transitions"] = ctx.auditor.transitions
            counters["audit-sweeps"] = ctx.auditor.audits
    return summary
