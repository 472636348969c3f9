"""Heap-scheduled discrete-event engine.

The engine is intentionally small and strictly deterministic: events
scheduled for the same timestamp fire in scheduling order (FIFO), which
makes paired policy runs reproducible bit-for-bit. This mirrors the
``schedule()`` primitive in the paper's Figure 7 pseudo-code, which is
used both for expiring notifications and for the delay stage.

Two scheduling surfaces share one timeline:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — dynamic
  timers (expirations, the delay stage, retractions), each a heap entry.
* :meth:`Simulator.add_stream` — a pre-sorted *read-only* event stream
  (trace replays: arrivals, rank changes, reads, link transitions).
  Streams are merged lazily against the dynamic heap à la
  :func:`heapq.merge`: the heap holds at most one cursor entry per
  stream, so replaying a 12k-record trace no longer pays ~12k heap
  pushes before the clock even starts. Each stream reserves a contiguous
  block of sequence numbers when added, so same-timestamp ordering is
  exactly the FIFO order that up-front ``schedule_at`` calls in the same
  program order would have produced — paired runs stay bit-for-bit
  identical.

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
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.errors import SimulationError

Callback = Callable[..., None]

#: One static-stream record: ``(time, callback, args)``.
StreamItem = Tuple[float, Callback, tuple]

#: A batch-stream pump: ``pump(pos, base, cap_time, cap_seq, until,
#: limit) -> consumed``. See :meth:`Simulator.add_batch_stream`.
BatchPump = Callable[[int, int, float, int, float, int], int]

_NO_LIMIT = sys.maxsize


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
    #: Owning static stream for lazily merged entries; None for dynamic
    #: timers. Stream cursor entries are reused across the stream's
    #: items, so they are never exposed through an :class:`EventHandle`.
    stream: Optional["_StaticStream"] = None


class _StaticStream:
    """Cursor over one pre-sorted read-only event sequence.

    ``base`` is the first of the contiguous sequence numbers reserved
    for the stream; item ``i`` fires with seq ``base + i``. A single
    mutable :class:`_ScheduledEvent` (``entry``) is reused as the heap
    cursor for every item, which keeps lazy merging allocation-free.
    """

    __slots__ = ("items", "pos", "base", "entry")

    #: Distinguishes scalar streams from batch streams in the hot loop
    #: without an isinstance check.
    is_batch = False

    def __init__(self, items: Sequence[StreamItem], base: int, entry: _ScheduledEvent):
        self.items = items
        self.pos = 1  # items[0] is already loaded into ``entry``
        self.base = base
        self.entry = entry

    @property
    def remaining(self) -> int:
        """Items not yet loaded into the heap cursor."""
        return len(self.items) - self.pos


class _BatchStream:
    """Cursor over a pre-sorted stream drained by a *pump* callable.

    Where :class:`_StaticStream` surfaces one ``(time, callback, args)``
    record per heap round-trip, a batch stream hands whole runs of
    consecutive items to a single pump call: the engine pops the cursor,
    computes how far the run may extend (the next heap entry and the
    ``until`` horizon), and the pump processes items until it hits that
    bound. The fleet dispatcher uses this to amortize per-event dispatch
    across thousands of devices (see :mod:`repro.fleet.batch`).

    ``pos`` is the index of the next unfired item; ``entry`` always
    mirrors item ``pos`` while the cursor is in the heap.
    """

    __slots__ = ("times", "pump", "pos", "base", "entry")

    is_batch = True

    def __init__(
        self, times: Sequence[float], pump: BatchPump, base: int,
        entry: _ScheduledEvent,
    ) -> None:
        self.times = times
        self.pump = pump
        self.pos = 0
        self.base = base
        self.entry = entry

    @property
    def remaining(self) -> int:
        """Items not yet fired, excluding the one loaded in the cursor."""
        return max(0, len(self.times) - self.pos - 1)


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
        self._stream_backlog = 0
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

    @property
    def pending(self) -> int:
        """Events still to fire: heap entries (including cancelled ones)
        plus static-stream items not yet merged into the heap."""
        return len(self._heap) + self._stream_backlog

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

    def add_stream(self, items: Iterable[StreamItem]) -> int:
        """Merge a pre-sorted read-only event stream into the timeline.

        ``items`` is a sequence of ``(time, callback, args)`` records in
        non-decreasing time order; args must be a tuple. The stream is
        replayed lazily: only its current head occupies the heap, so the
        heap stays as small as the dynamically scheduled timer set.

        Ordering is exactly equivalent to calling ``schedule_at`` for
        every item, in order, at the point ``add_stream`` is called: the
        stream reserves a contiguous block of sequence numbers, so ties
        against dynamic timers and other streams resolve identically.
        Items are validated lazily as the cursor advances (each time
        must be finite and non-decreasing); the first item is validated
        eagerly and must not lie in the past. Returns the item count.
        """
        items = items if isinstance(items, (list, tuple)) else list(items)
        if not items:
            return 0
        time, callback, args = items[0]
        if not math.isfinite(time):
            raise SimulationError(f"stream starts at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"stream starts at t={time:.3f} before current t={self._now:.3f}"
            )
        base = self._seq_next
        self._seq_next += len(items)
        entry = _ScheduledEvent(time=time, seq=base, callback=callback, args=args)
        entry.stream = _StaticStream(items, base, entry)
        heapq.heappush(self._heap, (time, base, entry))
        self._stream_backlog += len(items) - 1
        return len(items)

    def add_batch_stream(self, times: Sequence[float], pump: BatchPump) -> int:
        """Merge a pre-sorted batch stream drained by ``pump``.

        ``times`` is a non-decreasing sequence of finite timestamps, one
        per item; the items themselves live with the caller (typically
        as columnar arrays indexed in lockstep with ``times``). The
        stream reserves a contiguous block of sequence numbers exactly
        like :meth:`add_stream`, so its ordering against dynamic timers
        and other streams is identical to scheduling every item
        individually — only the dispatch is batched.

        When the stream's cursor is the earliest pending event, the
        engine calls ``pump(pos, base, cap_time, cap_seq, until, limit)``
        once for the whole run. The pump contract:

        * Process items ``i = pos, pos+1, ...`` while ``times[i] <=
          until`` **and** ``(times[i], base + i) < (cap_time, cap_seq)``
          **and** fewer than ``limit`` items have been consumed, setting
          ``sim._now = times[i]`` before each item's side effects.
        * If an item's processing schedules new events (detectable as a
          change of ``sim._seq_next``), refresh ``cap_time, cap_seq``
          from the first two fields of the ``(time, seq, event)`` tuple
          ``sim._heap[0]`` before testing the next item — a newly
          scheduled timer may preempt the rest of the run.
        * Return the number of items consumed (always >= 1: the first
          item was the global minimum and within ``until`` when the
          pump was invoked).

        The engine accounts ``events_processed`` and the stream backlog
        from the returned count and re-checks monotonicity whenever the
        cursor re-enters the heap. The pump is trusted engine-adjacent
        code; :mod:`repro.fleet.batch` is the reference implementation.
        Returns the item count.
        """
        times = times if isinstance(times, list) else list(times)
        if not times:
            return 0
        first = times[0]
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
        self._stream_backlog += len(times) - 1
        return len(times)

    def _finish_batch(self, stream: _BatchStream, consumed: int) -> None:
        """Account a pump run and re-arm the batch cursor."""
        if consumed < 1:
            raise SimulationError("batch pump made no progress")
        self._events_processed += consumed
        self._stream_backlog -= consumed - 1
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
        time = times[pos]
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
        self._stream_backlog -= 1
        heapq.heappush(self._heap, (time, seq, entry))

    def _advance_stream(self, stream: _StaticStream) -> None:
        """Load the stream's next item into its heap cursor, if any."""
        pos = stream.pos
        items = stream.items
        if pos >= len(items):
            # Exhausted: break the entry <-> stream cycle (see
            # _finish_batch) so the items — which hold a callback per
            # event, often bound methods of long-dead objects — free by
            # refcounting, not a later full GC sweep.
            cursor = stream.entry
            if cursor is not None:
                cursor.stream = None
            stream.entry = None
            return
        time, callback, args = items[pos]
        entry = stream.entry
        if not math.isfinite(time):
            raise SimulationError(
                f"stream item {pos} has non-finite time {time!r}"
            )
        if time < entry.time:
            raise SimulationError(
                f"stream item {pos} at t={time:.3f} precedes item {pos - 1} "
                f"at t={entry.time:.3f}; streams must be pre-sorted"
            )
        entry.time = time
        entry.seq = seq = stream.base + pos
        entry.callback = callback
        entry.args = args
        stream.pos = pos + 1
        self._stream_backlog -= 1
        heapq.heappush(self._heap, (time, seq, entry))

    def step(self) -> bool:
        """Fire the next pending event. Returns False if none remain."""
        while self._heap:
            _time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            stream = event.stream
            if stream is not None and stream.is_batch:
                # Single-step a batch stream: the popped cursor was the
                # global minimum, so no cap is needed for one item.
                consumed = stream.pump(
                    stream.pos, stream.base, math.inf, 0, math.inf, 1
                )
                self._finish_batch(stream, consumed)
                return True
            # Capture before advancing: the stream cursor entry is
            # reused, so _advance_stream overwrites these fields.
            time, callback, args = event.time, event.callback, event.args
            self._now = time
            self._events_processed += 1
            callback(*args)
            if stream is not None:
                self._advance_stream(stream)
            return True
        return False

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
            # Hot loop: locals for the heap, heappop/heappush and
            # isfinite save a global/attribute lookup per event, which
            # is measurable at fleet scale (millions of events per run).
            heap = self._heap
            heappop = heapq.heappop
            heappush = heapq.heappush
            isfinite = math.isfinite
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                stream = event.stream
                if stream is not None and stream.is_batch:
                    # Hand the whole run to the pump: it may fire every
                    # consecutive item that sorts before the next heap
                    # entry (and within ``until``), re-checking the cap
                    # whenever one of its items schedules a new event.
                    if heap:
                        cap_time, cap_seq, _top = heap[0]
                    else:
                        cap_time, cap_seq = math.inf, 0
                    consumed = stream.pump(
                        stream.pos,
                        stream.base,
                        cap_time,
                        cap_seq,
                        math.inf if until is None else until,
                        _NO_LIMIT,
                    )
                    self._finish_batch(stream, consumed)
                    continue
                # Capture before advancing: the stream cursor entry is
                # reused, so advancing overwrites these fields.
                callback, args = event.callback, event.args
                self._now = time
                self._events_processed += 1
                callback(*args)
                if stream is None:
                    continue
                # Advance after firing so a malformed item N+1 (unsorted
                # or non-finite) surfaces only once the valid prefix ran.
                # Runs of same-timestamp stream items fire directly: the
                # stream's seq block is contiguous, so after item i (seq
                # base+i) fires at time t every other heap entry at t has
                # seq > base+i and no seq lies between base+i and
                # base+i+1 — item i+1 at time t is the global minimum and
                # the heap round-trip is pure overhead. Dynamic events a
                # callback schedules at t get seq >= _seq_next > the
                # block end, so they still fire after the whole run.
                items = stream.items
                size = len(items)
                pos = stream.pos
                while pos < size:
                    next_time, callback, args = items[pos]
                    if not isfinite(next_time):
                        raise SimulationError(
                            f"stream item {pos} has non-finite time {next_time!r}"
                        )
                    if next_time < time:
                        raise SimulationError(
                            f"stream item {pos} at t={next_time:.3f} precedes "
                            f"item {pos - 1} at t={time:.3f}; streams must be "
                            f"pre-sorted"
                        )
                    if next_time > time:
                        # Hand the cursor back to the heap for lazy merge.
                        event.time = next_time
                        event.seq = seq = stream.base + pos
                        event.callback = callback
                        event.args = args
                        stream.pos = pos + 1
                        self._stream_backlog -= 1
                        heappush(heap, (next_time, seq, event))
                        break
                    stream.pos = pos = pos + 1
                    self._stream_backlog -= 1
                    self._events_processed += 1
                    callback(*args)
                if pos >= size:
                    # Exhausted without re-arming: break the entry <->
                    # stream cycle (see _finish_batch).
                    event.stream = None
                    stream.entry = None
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
          means time would run backwards);
        * **stream accounting** — the lazily merged stream backlog can
          never go negative.

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
        if self._stream_backlog < 0:
            violations.append(
                f"negative static-stream backlog: {self._stream_backlog}"
            )
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
