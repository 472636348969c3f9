"""Bounded structured trace recorder.

A :class:`TraceRecorder` is a ring buffer of typed
:mod:`repro.obs.records`: the proxy appends one record per interesting
delivery-path event, the buffer keeps only the most recent ``capacity``
of them, and :meth:`TraceRecorder.export_jsonl` dumps the window as
JSON-lines for offline analysis (the CLI's ``--trace-out``).

The recorder is deliberately dumb and fast: every ``record_*`` method is
one dataclass allocation plus a deque append. The proxy guards each call
site with a single ``if recorder is not None`` so a run without
observability pays nothing.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, List, Optional, Union

from repro.errors import ConfigurationError, ExportError
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
    RecoverRecord,
    RetractRecord,
    as_dict,
)

#: Default ring size: deep enough to reconstruct how a run got into a
#: bad state, small enough that year-long runs stay bounded.
DEFAULT_CAPACITY: int = 4096


class TraceRecorder:
    """Ring buffer of delivery-path records."""

    __slots__ = ("_buffer", "_capacity", "recorded")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(f"trace capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._buffer: Deque[ObsRecord] = deque(maxlen=capacity)
        #: Records ever appended (including ones the ring has evicted).
        self.recorded = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound so far."""
        return self.recorded - len(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    # ------------------------------------------------------------------
    # Record sites (one per delivery-path event kind)
    # ------------------------------------------------------------------
    def forward(
        self, time: float, topic: str, event_id: int, mode: str, queue_size: int
    ) -> None:
        self.recorded += 1
        self._buffer.append(ForwardRecord(time, topic, event_id, mode, queue_size))

    def retract(self, time: float, topic: str, event_id: int) -> None:
        self.recorded += 1
        self._buffer.append(RetractRecord(time, topic, event_id))

    def expire_at_proxy(
        self, time: float, topic: str, event_id: int, where: str
    ) -> None:
        self.recorded += 1
        self._buffer.append(ExpireAtProxyRecord(time, topic, event_id, where))

    def rank_change(
        self,
        time: float,
        topic: str,
        event_id: int,
        old_rank: float,
        new_rank: float,
        outcome: str,
    ) -> None:
        self.recorded += 1
        self._buffer.append(
            RankChangeRecord(time, topic, event_id, old_rank, new_rank, outcome)
        )

    def read_exchange(
        self, time: float, topic: str, n: int, candidates: int, sent: int,
        queue_size: int,
    ) -> None:
        self.recorded += 1
        self._buffer.append(
            ReadExchangeRecord(time, topic, n, candidates, sent, queue_size)
        )

    def quiet_defer(self, time: float, topic: str, until: float) -> None:
        self.recorded += 1
        self._buffer.append(QuietDeferRecord(time, topic, until))

    def budget_exhaust(self, time: float, topic: str, event_id: int) -> None:
        self.recorded += 1
        self._buffer.append(BudgetExhaustRecord(time, topic, event_id))

    def delivery_drop(
        self, time: float, topic: str, event_id: int, attempt: int
    ) -> None:
        self.recorded += 1
        self._buffer.append(DeliveryDropRecord(time, topic, event_id, attempt))

    def duplicate_delivery(self, time: float, topic: str, event_id: int) -> None:
        self.recorded += 1
        self._buffer.append(DuplicateDeliveryRecord(time, topic, event_id))

    def crash(self, time: float, topic: str) -> None:
        self.recorded += 1
        self._buffer.append(CrashRecord(time, topic))

    def recover(
        self, time: float, topic: str, downtime: float, requeued: int
    ) -> None:
        self.recorded += 1
        self._buffer.append(RecoverRecord(time, topic, downtime, requeued))

    # ------------------------------------------------------------------
    # Inspection / export
    # ------------------------------------------------------------------
    def records(self) -> List[ObsRecord]:
        """A snapshot of the current window, oldest first."""
        return list(self._buffer)

    def last(self, k: int) -> List[ObsRecord]:
        """The most recent ``k`` records, oldest first."""
        if k <= 0:
            return []
        buffer = self._buffer
        if k >= len(buffer):
            return list(buffer)
        return [buffer[i] for i in range(len(buffer) - k, len(buffer))]

    def clear(self) -> None:
        self._buffer.clear()
        self.recorded = 0

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write the current window as JSON-lines; returns lines written.

        Raises :class:`~repro.errors.ExportError` when the target cannot
        be written (missing directory, permissions, read-only mount) —
        the ``--trace-out`` path is user input, not an internal bug.
        """
        records = self.records()
        try:
            with Path(path).open("w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(as_dict(record), sort_keys=True))
                    handle.write("\n")
        except OSError as exc:
            raise ExportError(
                f"cannot write trace export to {path}: {exc}"
            ) from exc
        return len(records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self._buffer)}/{self._capacity} held, "
            f"{self.recorded} recorded)"
        )


def load_jsonl(path: Union[str, Path]) -> List[dict]:
    """Read a ``--trace-out`` export back as a list of plain dicts.

    A file that is not UTF-8 text, or a truncated or otherwise corrupt
    line, raises :class:`~repro.errors.ConfigurationError` naming the
    file (and the offending line), never a bare traceback from the
    decoding or JSON layer.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from exc
    records: List[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{number}: truncated or corrupt trace record: {exc}"
            ) from exc
    return records


#: Optional recorder slot, the type the proxy holds.
OptionalRecorder = Optional[TraceRecorder]
