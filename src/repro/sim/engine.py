"""Heap-scheduled discrete-event engine.

The engine is intentionally small and strictly deterministic: events
scheduled for the same timestamp fire in scheduling order (FIFO), which
makes paired policy runs reproducible bit-for-bit. This mirrors the
``schedule()`` primitive in the paper's Figure 7 pseudo-code, which is
used both for expiring notifications and for the delay stage.

Two scheduling surfaces share one timeline:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — one
  heap entry per event: timers (expirations, the delay stage,
  retractions) and the scalar oracle's trace replay.
* :meth:`Simulator.add_batch_stream` — a pre-sorted stream drained by a
  *pump* callable that consumes whole runs of items per call. The heap
  holds one cursor entry per stream, and the stream reserves a
  contiguous block of sequence numbers when added, so same-timestamp
  ordering is exactly the FIFO order that ``schedule_at`` calls for
  every item, in the same program order, would have produced. The fleet
  dispatcher (:mod:`repro.fleet.batch`) replays every trace this way.

Heap entries are ``(time, seq, event)`` tuples, so every sift compares
in C. ``seq`` is unique per pending entry, so a comparison never
reaches the event. Code that reads the heap directly (the batch pump,
``audit``, the fleet runner's teardown) unpacks the tuple. The event's
own ``time``/``seq`` fields must equal its tuple's; ``audit`` checks
that.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._compat import DATACLASS_SLOTS
from repro.errors import SimulationError

Callback = Callable[..., None]

#: A batch-stream pump: ``pump(pos, base, cap_time, cap_seq, until)
#: -> consumed``. See :meth:`Simulator.add_batch_stream`.
BatchPump = Callable[[int, int, float, int, float], int]


#: One engine heap entry: ``(time, seq, event)``.
HeapEntry = Tuple[float, int, "_ScheduledEvent"]


@dataclass(eq=False, **DATACLASS_SLOTS)
class _ScheduledEvent:
    """A pending event. The heap orders its ``(time, seq, event)``
    entry, so the event itself is never compared."""

    time: float
    seq: int
    callback: Callback
    args: tuple = ()
    cancelled: bool = False
    #: Owning batch stream for a stream cursor; None for a scheduled
    #: event. A cursor entry is reused across the stream's items, so it
    #: is never exposed through an :class:`EventHandle`.
    stream: Optional["_BatchStream"] = None


class _BatchStream:
    """Cursor over a pre-sorted stream drained by a *pump* callable.

    The engine pops the cursor, computes how far the run may extend (the
    next heap entry and the ``until`` horizon), and the pump processes
    items until it hits that bound, so one call amortizes dispatch
    across thousands of devices (see :mod:`repro.fleet.batch`).

    ``pos`` is the index of the next unfired item; ``entry`` always
    mirrors item ``pos`` while the cursor is in the heap.
    """

    __slots__ = ("times", "pump", "pos", "base", "entry")

    def __init__(
        self, times: Sequence[float], pump: BatchPump, base: int,
        entry: _ScheduledEvent,
    ) -> None:
        self.times = times
        self.pump = pump
        self.pos = 0
        self.base = base
        self.entry = entry


def _batch_cursor_callback() -> None:  # pragma: no cover - never fires
    raise SimulationError("batch stream cursor fired as a plain event")


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding the handle allows the caller to cancel the event before it
    fires; the engine simply skips cancelled entries when they surface.
    """

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self._event.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(5.0, print, "five seconds in")
        sim.run()
        assert sim.now == 5.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[HeapEntry] = []
        self._seq_next = 0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events that have fired."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative and finite; a zero delay fires the
        callback on the current timestamp after all events already
        scheduled for it.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.3f} s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``time`` must be finite: NaN would silently corrupt the heap
        ordering (every comparison against it is False), and +inf would
        never fire yet keep ``run()`` from ever draining the queue.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} before current t={self._now:.3f}"
            )
        seq = self._seq_next
        self._seq_next += 1
        event = _ScheduledEvent(time=time, seq=seq, callback=callback, args=args)
        heapq.heappush(self._heap, (time, seq, event))
        return EventHandle(event)

    def add_batch_stream(self, times: Sequence[float], pump: BatchPump) -> int:
        """Merge a pre-sorted batch stream drained by ``pump``.

        ``times`` is a non-decreasing sequence of finite timestamps, one
        per item; the items themselves live with the caller (typically
        as columnar arrays indexed in lockstep with ``times``). The
        stream reserves a contiguous block of sequence numbers, so its
        ordering against timers and other streams is identical to
        calling ``schedule_at`` for every item, in order, at the point
        the stream is added — only the dispatch is batched. A list or a
        float64 numpy array is kept as is, without a copy (the fleet's
        merged stream stays a numpy column); any other iterable is
        listed. The cursor's heap key is ``float(times[pos])``, so heap
        keys, and the caps a pump is handed, stay Python floats.

        When the stream's cursor is the earliest pending event, the
        engine calls ``pump(pos, base, cap_time, cap_seq, until)`` once
        for the whole run. The pump contract:

        * Process items ``i = pos, pos+1, ...`` while ``times[i] <=
          until`` **and** ``(times[i], base + i) < (cap_time, cap_seq)``,
          setting ``sim._now = times[i]`` before each item's side
          effects.
        * If an item's processing schedules new events (detectable as a
          change of ``sim._seq_next``), refresh ``cap_time, cap_seq``
          from the first two fields of the ``(time, seq, event)`` tuple
          ``sim._heap[0]`` before testing the next item — a newly
          scheduled timer may preempt the rest of the run.
        * Return the number of items consumed (always >= 1: the first
          item was the global minimum and within ``until`` when the
          pump was invoked).

        The engine accounts ``events_processed`` from the returned count
        and checks each item the cursor re-enters the heap with: its
        time must be finite and not before the clock. The pump is
        trusted engine-adjacent code; :mod:`repro.fleet.batch` is the
        reference implementation. Returns the item count.
        """
        if not isinstance(times, (list, np.ndarray)):
            times = list(times)
        if not len(times):
            return 0
        first = float(times[0])
        if not math.isfinite(first):
            raise SimulationError(f"stream starts at non-finite time {first!r}")
        if first < self._now:
            raise SimulationError(
                f"stream starts at t={first:.3f} before current t={self._now:.3f}"
            )
        base = self._seq_next
        self._seq_next += len(times)
        entry = _ScheduledEvent(time=first, seq=base, callback=_batch_cursor_callback)
        entry.stream = _BatchStream(times, pump, base, entry)
        heapq.heappush(self._heap, (first, base, entry))
        return len(times)

    def _finish_batch(self, stream: _BatchStream, consumed: int) -> None:
        """Account a pump run and re-arm the batch cursor."""
        if consumed < 1:
            raise SimulationError("batch pump made no progress")
        self._events_processed += consumed
        pos = stream.pos + consumed
        stream.pos = pos
        times = stream.times
        if pos >= len(times):
            # Exhausted: the cursor never re-enters the heap. Break the
            # entry <-> stream cycle so the stream (and whatever its
            # pump closes over — at fleet scale, the whole shard) frees
            # by plain refcounting even with the cyclic collector
            # suspended.
            cursor = stream.entry
            if cursor is not None:
                cursor.stream = None
            stream.entry = None
            return
        time = float(times[pos])
        if not math.isfinite(time):
            raise SimulationError(
                f"stream item {pos} has non-finite time {time!r}"
            )
        if time < self._now:
            raise SimulationError(
                f"stream item {pos} at t={time:.3f} precedes item {pos - 1} "
                f"at t={self._now:.3f}; streams must be pre-sorted"
            )
        entry = stream.entry
        entry.time = time
        entry.seq = seq = stream.base + pos
        heapq.heappush(self._heap, (time, seq, entry))

    def run(self, until: Optional[float] = None) -> None:
        """Run events in time order.

        With ``until`` set, stops once the next event lies strictly beyond
        that time and advances the clock to exactly ``until``; without it,
        runs until the queue drains.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        try:
            if until is not None and until < self._now:
                raise SimulationError(
                    f"cannot run until t={until:.3f}, clock already at t={self._now:.3f}"
                )
            horizon = math.inf if until is None else until
            # Hot loop: locals for the heap and heappop save a global or
            # attribute lookup per event, which is measurable at fleet
            # scale (millions of events per run).
            heap = self._heap
            heappop = heapq.heappop
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                stream = event.stream
                if stream is not None:
                    # Hand the whole run to the pump: it may fire every
                    # consecutive item that sorts before the next heap
                    # entry (and within ``until``), re-checking the cap
                    # whenever one of its items schedules a new event.
                    if heap:
                        cap_time, cap_seq, _top = heap[0]
                    else:
                        cap_time, cap_seq = math.inf, 0
                    consumed = stream.pump(
                        stream.pos, stream.base, cap_time, cap_seq, horizon
                    )
                    self._finish_batch(stream, consumed)
                    continue
                self._now = time
                self._events_processed += 1
                event.callback(*event.args)
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False

    def audit(self) -> List[str]:
        """Check the engine's structural invariants; returns violations.

        Used by the sampled invariant-audit mode (:mod:`repro.obs`):

        * **heap monotonicity** — every heap entry respects the binary
          min-heap property over ``(time, seq)``, so the next event
          popped really is the earliest pending one;
        * **entry/event agreement** — each ``(time, seq, event)`` entry
          carries its event's own ``time`` and ``seq``, so the heap
          orders the event where it will fire;
        * **no past events** — no pending entry is scheduled before the
          current clock (``schedule_at`` forbids it; corruption here
          means time would run backwards).

        Cost is O(pending); callers sample rather than check per event.
        """
        violations: List[str] = []
        heap = self._heap
        now = self._now
        for index, (time, seq, event) in enumerate(heap):
            if index > 0:
                parent_time, parent_seq, _parent = heap[(index - 1) >> 1]
                if (time, seq) < (parent_time, parent_seq):
                    violations.append(
                        f"engine heap property broken at index {index}: "
                        f"t={time:.3f} sorts before parent t={parent_time:.3f}"
                    )
            if (time, seq) != (event.time, event.seq):
                violations.append(
                    f"engine heap entry at index {index} keys (t={time:.3f}, "
                    f"seq={seq}) but its event is (t={event.time:.3f}, "
                    f"seq={event.seq})"
                )
            if time < now:
                violations.append(
                    f"engine heap holds an entry at t={time:.3f} "
                    f"before the clock t={now:.3f}"
                )
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, heap={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
