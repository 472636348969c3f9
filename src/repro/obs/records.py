"""Typed observability records.

Each record captures one delivery-path event the proxy (or engine)
considered externally meaningful: a forward over the last hop, a
retraction, an expiry while still queued at the proxy, a rank change, a
READ exchange, a quiet-hours deferral, or a push-budget exhaustion.
Records are intentionally tiny slotted dataclasses — a year-long audited
run emits millions of them, and the ring buffer in
:mod:`repro.obs.recorder` holds only the most recent window.

``as_dict`` flattens any record into JSON-safe primitives for the JSONL
export (``--trace-out``); the ``kind`` class attribute doubles as the
schema discriminator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Tuple, Union

from repro._compat import DATACLASS_SLOTS


@dataclass(frozen=True, **DATACLASS_SLOTS)
class ForwardRecord:
    """One notification shipped proxy -> device (``do_forward``)."""

    kind: ClassVar[str] = "forward"
    time: float
    topic: str
    event_id: int
    mode: str  #: "PUSHED" or "PULLED"
    queue_size: int  #: proxy's client-queue estimate after the forward


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RetractRecord:
    """A rank-drop retraction sent over the last hop."""

    kind: ClassVar[str] = "retract"
    time: float
    topic: str
    event_id: int


@dataclass(frozen=True, **DATACLASS_SLOTS)
class ExpireAtProxyRecord:
    """A notification expired while still held by the proxy.

    ``where`` names the site that detected it: ``arrival`` (dead on
    arrival), ``read`` (pruned during a READ exchange), ``outgoing`` /
    ``prefetch`` (caught while flushing), or ``timer`` (the expiration
    timeout fired while the event was still queued).
    """

    kind: ClassVar[str] = "expire-at-proxy"
    time: float
    topic: str
    event_id: int
    where: str


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RankChangeRecord:
    """A rank-change announcement for a known event.

    ``outcome`` is what the proxy did about it: ``retracted`` (below
    threshold, already forwarded), ``dropped`` (below threshold, silently
    removed from the queues), or ``reordered`` (re-keyed in place).
    """

    kind: ClassVar[str] = "rank-change"
    time: float
    topic: str
    event_id: int
    old_rank: float
    new_rank: float
    outcome: str


@dataclass(frozen=True, **DATACLASS_SLOTS)
class ReadExchangeRecord:
    """One READ exchange served by the proxy."""

    kind: ClassVar[str] = "read-exchange"
    time: float
    topic: str
    n: int  #: requested read size
    candidates: int  #: queued candidates the proxy considered
    sent: int  #: notifications actually shipped (the "difference")
    queue_size: int  #: client queue estimate reported with the READ


@dataclass(frozen=True, **DATACLASS_SLOTS)
class QuietDeferRecord:
    """A proactive push deferred by a §2.2 quiet window."""

    kind: ClassVar[str] = "quiet-defer"
    time: float
    topic: str
    until: float  #: end of the quiet window (wake-up time)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class BudgetExhaustRecord:
    """A proactive push blocked because the daily push budget is spent."""

    kind: ClassVar[str] = "budget-exhaust"
    time: float
    topic: str
    event_id: int


@dataclass(frozen=True, **DATACLASS_SLOTS)
class DeliveryDropRecord:
    """A last-hop delivery attempt lost by the fault plan."""

    kind: ClassVar[str] = "delivery-drop"
    time: float
    topic: str
    event_id: int
    attempt: int  #: 1 = the initial transfer, 2+ = retries


@dataclass(frozen=True, **DATACLASS_SLOTS)
class DuplicateDeliveryRecord:
    """A successfully delivered notification shipped a second time."""

    kind: ClassVar[str] = "duplicate-delivery"
    time: float
    topic: str
    event_id: int


@dataclass(frozen=True, **DATACLASS_SLOTS)
class CrashRecord:
    """A binding's proxy worker crashed: its timers and in-flight state
    were torn down."""

    kind: ClassVar[str] = "crash"
    time: float
    topic: str


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RecoverRecord:
    """A binding's worker restarted and rebuilt its state from retained
    history."""

    kind: ClassVar[str] = "recover"
    time: float
    topic: str
    downtime: float  #: seconds the binding was down
    requeued: int  #: history events re-enqueued during recovery


#: Everything the recorder can hold.
ObsRecord = Union[
    ForwardRecord,
    RetractRecord,
    ExpireAtProxyRecord,
    RankChangeRecord,
    ReadExchangeRecord,
    QuietDeferRecord,
    BudgetExhaustRecord,
    DeliveryDropRecord,
    DuplicateDeliveryRecord,
    CrashRecord,
    RecoverRecord,
]

#: All record types, for schema introspection and tests.
RECORD_TYPES: Tuple[type, ...] = (
    ForwardRecord,
    RetractRecord,
    ExpireAtProxyRecord,
    RankChangeRecord,
    ReadExchangeRecord,
    QuietDeferRecord,
    BudgetExhaustRecord,
    DeliveryDropRecord,
    DuplicateDeliveryRecord,
    CrashRecord,
    RecoverRecord,
)


def as_dict(record: ObsRecord) -> dict:
    """Flatten a record into JSON-safe primitives, ``kind`` first."""
    out = {"kind": record.kind}
    for field in dataclasses.fields(record):
        out[field.name] = getattr(record, field.name)
    return out
