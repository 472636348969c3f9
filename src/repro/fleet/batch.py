"""Batched fleet-shard dispatch over the shard's binding table.

The scalar oracle schedules each device's four trace record kinds
(the fleet runner's ``_schedule_trace``, one ``schedule_at`` per record)
and fires one Python callback per event; at 100k devices that is ~10
million dispatch round-trips, each touching scattered per-binding
objects. This module is the batch alternative: every device's records
collapse into **one** merged batch stream registered through the
engine's batch-pop API
(:meth:`~repro.sim.engine.Simulator.add_batch_stream`), and a single
*pump* consumes whole runs of consecutive events in one call,
dispatching each on the row of :class:`~repro.fleet.columns.
FleetColumns` that belongs to its device.

Merging the records is an ordering-preserving transformation. The
oracle schedules a device's records kind by kind (arrivals → rank
changes → reads → outages), so the engine fires them "by time; at equal
times by kind in that order; within a kind in record order". A stable
sort by time over the four kind-ordered, device-major columns
concatenated in that order keeps that order for every device, and the
one block it reserves has the total length of the oracle's per-record
sequence numbers, so dynamic timers (always later) and pre-registered
crash timers (always earlier) tie-break identically in both modes. Only
the order between devices at an equal time moves, and no shared state
sees it (reads, which feed the shard-wide ``read_delay`` sketch, stay
device-major in both). The heap carries one cursor instead of every
trace record, and the pump is re-entered only when a timer preempts it.

The runner decides each binding's runtime at wiring, once: it stays
**array-resident** — its row is its only state and no per-device object
exists (see :mod:`repro.fleet.columns`) — or it is materialized as the
scalar oracle's objects and every event of its runs on their callbacks.
The resident handlers cover exactly the events whose whole effect is a
handful of row writes plus the timers the objects would arm:

* filtered and dead-on-arrival arrivals (counts only);
* a live arrival: forwarded on arrival when the link is up and, unless
  the policy is ONLINE, the client has room under the prefetch limit
  (then nothing is queued ahead of it); otherwise queued. Under a fixed
  positive delay (§3.4, never ONLINE) it first waits in the delay stage
  on the proxy's delay timer (:meth:`ShardBatchDispatcher.
  _delay_timeout`). An expiring one (§3.3) first arms the proxy's
  expiration timer, as ``_handle_new_event`` does — also when it is
  forwarded at once, whose forward cancels it (the row then only draws
  its sequence number); outside ONLINE, one whose lifetime is below the
  expiration threshold (the policy's, or the read-interval average)
  goes to the row's holding queue, which only a READ forwards. A
  delivered expiring entry arms the device's expiry timer
  (``ClientDevice.receive``) when it lands, cancelled when the user
  reads it;
* DOWN, and UP: the queue report, the offline read log replayed as
  ``on_read_report`` replays it, the limit recompute, then the queue
  flushed highest-first as pushes — whole under ONLINE, up to the limit
  otherwise (an entry due at that very time expires instead);
* a user read while the link is up: the moving-average bookkeeping and
  the limit recompute; with anything at the proxy, ``on_read``'s prune
  of what is due now and its exchange on tuples (the top N of the queue
  and the holding queue merged with the top N held, the device's copy
  winning rank ties; the proxy's share of the first N is pulled, then
  the queue tops the client up to the new limit); then the ranked
  local consume, which skips an entry due now;
* a user read while the link is down: a log entry and the local
  consume.

Under a crash-free fault spec every forward — on arrival, at a delay
timeout, in the UP flush and in the READ exchange — runs the resident
ack–retry ladder: :meth:`ShardBatchDispatcher._attempt` is
:meth:`~repro.device.link.LastHopLink._attempt` on the row — the same
:class:`~repro.faults.FaultPlan` draws in the same order, the same
``sim.schedule`` calls for a retry, a jittered landing and a duplicate,
retries parked while the link is down and resumed on UP. The draws are
SHA-256 hashes, which no vector op computes, so the row schedules the
link's timers rather than re-deriving every ``(time, seq)`` tie. On UP
the row corrupts its offline log with the plan's
``corrupt_read_report`` and sorts it by time before the replay, as
``ClientDevice._on_link_status`` and ``on_read_report`` do.

The runner materializes at wiring the bindings a row does not model:
all of them when the shard cannot keep rows (below) or its bindings are
not the ON-DEMAND, unscheduled kind the row models, and those whose
input carries a rank change (it resolves against a history a row does
not keep). The pump hands such a binding's stream events to its
objects; a row timer only ever fires on a resident binding.

Equivalence contract (pinned by ``tests/fleet/test_fleet_batch.py``):
the pump and the scalar oracle — the fleet runner's private
``_execute_shard(..., use_batch=False)``, which materializes every
binding at wiring and schedules each device's trace one record at a
time — produce
bit-identical :class:`~repro.metrics.streaming.FleetAccumulator` integer
counters, float sums, and sketch buckets for any policy, fault preset,
and seed, and whichever subset of bindings is materialized at wiring.
On one device — :func:`~repro.experiments.runner.run_scenario`, whose
rows also record the ids they read — the two return the same
``RunResult`` field for field
(``tests/experiments/test_scenario_on_rows.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import _siftdown, _siftup, heappop, heappush
from operator import itemgetter
from typing import Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet.columns import FleetColumns, row_notification
from repro.fleet.workload import FleetWorkload
from repro.metrics.streaming import FleetAccumulator
from repro.proxy.moving_average import IntervalAverage, MovingAverage
from repro.proxy.policies import PolicyConfig
from repro.proxy.prefetch import BufferPrefetcher
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator, _ScheduledEvent
from repro.types import NetworkStatus, PolicyKind

_UP = NetworkStatus.UP
_DOWN = NetworkStatus.DOWN
#: The sort key of a read-log entry ``(time, n)``.
_time_of = itemgetter(0)

#: Merged-stream event codes. Arrival classification (live / filtered /
#: dead-on-arrival) is precomputed vectorized at build time and encoded
#: directly, as is the outage direction, so the pump dispatches on one
#: small-int compare chain.
_ARRIVE = 0
_ARRIVE_FILTERED = 1
_ARRIVE_DEAD = 2
_CHANGE = 3
_READ = 4
_OUTAGE_DOWN = 5
_OUTAGE_UP = 6
#: A live, non-expiring arrival entering a positive §3.4 delay stage.
_ARRIVE_DELAYED = 7
#: A live arrival that expires (§3.3).
_ARRIVE_EXPIRING = 8

#: Stream items the pump boxes into Python lists at a time: the merged
#: stream stays in numpy columns, so a shard's peak memory grows by
#: their ~45 B per event rather than ~215 B of boxed list items.
BLOCK = 4096


class ShardBatchDispatcher:
    """Drives one fleet shard through the engine's batch-pop API.

    Construction wires nothing into the simulator; call
    :meth:`register_streams` once the bindings that must be materialized
    at wiring are. The dispatcher assumes the fleet runner's wiring
    shape: one topic per device, ``report_on_reconnect`` devices, and
    crash timers (if any) already scheduled — exactly what
    ``repro.fleet.runner`` builds. ``plan_for(d)`` is the runner's:
    binding ``d``'s fault plan under ``spec`` (a non-null spec, or None).
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        workload: FleetWorkload,
        proxy: LastHopProxy,
        policy: PolicyConfig,
        cols: FleetColumns,
        accumulator: Optional[FleetAccumulator],
        spec: Optional[FaultSpec],
        plan_for: Callable[[int], FaultPlan],
        recorder,
        auditor,
    ) -> None:
        self.sim = sim
        self.workload = workload
        self.proxy = proxy
        self.policy = policy
        self.cols = cols
        self.plan_for = plan_for
        #: Resident bindings stream their read ages into the same shared
        #: pair every ``SketchedStats`` of the shard feeds; a shard with
        #: no accumulator (one ``run_scenario`` device) keeps neither.
        self.accumulator = accumulator

        #: Whether bindings may stay array-resident. Nothing may observe
        #: intermediate states or perturb a delivery outside the pump
        #: and the row's own timers: no observers (recorder/auditor
        #: hooks fire on the scalar callbacks only), and a spec, if any,
        #: that arms no proxy crash (crash timers must draw their
        #: sequence numbers at wiring, before the streams); and not RATE,
        #: whose arrivals earn forwarding credit a row has no line for.
        #: False means the runner materializes every binding at wiring.
        self.keeps_rows = (
            recorder is None and auditor is None
            and (spec is None or spec.crashes_per_day == 0)
            and policy.kind is not PolicyKind.RATE
        )
        self.online_kind = policy.kind is PolicyKind.ONLINE
        #: The row's §3.4 delay: a fixed positive ``policy.delay``, but 0
        #: under ONLINE, whose arrivals never reach the stage (an adaptive
        #: delay is 0 until a rank drop, and rank changes never reach rows).
        self.delay = 0.0 if self.online_kind or not policy.delay else policy.delay
        #: The resident read's limit recompute (the objects' own lives
        #: in the proxy).
        self.limits = BufferPrefetcher(policy)

        #: Merged columnar stream (filled by register_streams): sorted
        #: numpy columns — times, codes, devices, the integer payload
        #: (event id for arrivals and changes, read count for reads),
        #: and the float payloads rank, expires-at (NaN = never) and
        #: published-at (changes only; arrivals publish at their own
        #: timestamp). The pump boxes ``BLOCK`` items of every column at
        #: a time into ``block`` (lists: per-item reads stay unboxed),
        #: starting at stream position ``block_lo``.
        self.m_columns: tuple = ()
        self.m_count = 0
        self.block: tuple = ((),) * 7
        self.block_lo = 0

    # ------------------------------------------------------------------
    # Stream construction
    # ------------------------------------------------------------------
    @staticmethod
    def _check_times(name: str, times: np.ndarray) -> None:
        """Vectorized analogue of ``schedule_at``'s per-item
        validation: every timestamp finite (sortedness is guaranteed by
        the argsort that produced the order)."""
        if times.size and not np.isfinite(times).all():
            raise SimulationError(f"fleet {name} stream contains non-finite times")

    def register_streams(self) -> None:
        """Register the shard's events as one merged batch stream.

        Each kind is first ordered by stable time argsorts (outages by
        ``lexsort((is_down, times))``: an UP precedes a DOWN at an equal
        within-device time, as in ``Trace.network_transitions``), then
        the kinds are concatenated in the oracle's scheduling order and
        stable-sorted by time, which — see the module docstring — keeps
        every device's firing order under the scalar oracle. The single
        reserved sequence block has the scalar mode's total length, so
        ``_seq_next`` (and with it every dynamic timer's tie-breaking)
        advances identically. Arrival classification (below-threshold /
        dead-on-arrival / live) is precomputed with vectorized masks;
        ``Notification`` objects are created lazily in the pump, only
        for events that survive.
        """
        wl = self.workload
        n = wl.devices
        duration = wl.config.duration
        threshold = wl.config.threshold

        acols = wl.arrivals
        adev = np.repeat(np.arange(n, dtype=np.int32), wl.arrival_counts)
        order = np.argsort(acols.times, kind="stable")
        a_times = acols.times[order]
        self._check_times("arrival", a_times)
        a_ranks = acols.ranks[order]
        a_exps = acols.expires_at[order]
        self._check_times("expiry", a_exps[~np.isnan(a_exps)])
        below = a_ranks < threshold
        # NaN (the no-expiry sentinel) compares False, so non-expiring
        # notifications are never classified dead.
        dead = ~below & (a_exps <= a_times)
        a_codes = np.where(below, _ARRIVE_FILTERED, _ARRIVE).astype(np.uint8)
        a_codes[dead] = _ARRIVE_DEAD
        a_codes[(a_codes == _ARRIVE) & ~np.isnan(a_exps)] = _ARRIVE_EXPIRING
        if self.delay > 0:
            a_codes[a_codes == _ARRIVE] = _ARRIVE_DELAYED
        a_devs = adev[order]
        a_eids = acols.event_ids[order]

        ccols = wl.rank_changes
        if ccols.times.size:
            order = np.argsort(ccols.times, kind="stable")
            c_times = ccols.times[order]
            self._check_times("rank-change", c_times)
            c_eids = ccols.event_ids[order]
            c_ranks = ccols.new_ranks[order]
            # Resolve each change's original arrival so the update
            # notification carries the publication fields the scalar
            # runner copies from its ``originals`` map. The lookup key
            # is (device, event id): ids are unique within a device but
            # need not ascend (a hand-written trace) or be unique across
            # devices (``FleetWorkload.from_traces``).
            c_devs = np.repeat(np.arange(n, dtype=np.int32), wl.change_counts)[order]
            ids, index = np.unique(
                np.concatenate([acols.event_ids, c_eids]), return_inverse=True
            )
            width = np.int64(ids.size)  # int64 keys: devices are int32
            a_keys = adev * width + index[: adev.size]
            c_keys = c_devs * width + index[adev.size :]
            by_key = np.argsort(a_keys, kind="stable")
            pos = np.searchsorted(a_keys, c_keys, sorter=by_key)
            if not (pos < a_keys.size).all() or not np.array_equal(
                a_keys[by_key[pos]], c_keys
            ):
                raise SimulationError(
                    "fleet rank-change stream names an event with no arrival"
                )
            src = by_key[pos]
            c_pubs = acols.times[src]
            c_exps = acols.expires_at[src]
        else:
            c_times = c_ranks = c_pubs = c_exps = np.empty(0)
            c_eids = np.empty(0, dtype=np.int64)
            c_devs = np.empty(0, dtype=np.int32)

        rcols = wl.reads
        ridx = np.repeat(np.arange(n, dtype=np.int32), wl.read_counts)
        order = np.argsort(rcols.times, kind="stable")
        r_times = rcols.times[order]
        self._check_times("read", r_times)
        r_devs = ridx[order]
        r_counts = rcols.counts[order]

        ocols = wl.outages
        oidx = np.repeat(np.arange(n, dtype=np.int32), wl.outage_counts)
        ev_times = np.concatenate([ocols.starts, ocols.ends])
        ev_dev = np.concatenate([oidx, oidx])
        is_down = np.concatenate(
            [np.ones(ocols.starts.size, bool), np.zeros(ocols.ends.size, bool)]
        )
        # Trace.network_transitions' clamp: nothing of an outage that
        # starts at or after the end of the run, and no UP at or after it.
        down = ocols.starts < duration
        keep = np.concatenate([down, down & (ocols.ends < duration)])
        ev_times, ev_dev, is_down = ev_times[keep], ev_dev[keep], is_down[keep]
        order = np.lexsort((is_down, ev_times))
        o_times = ev_times[order]
        self._check_times("outage", o_times)
        o_devs = ev_dev[order]
        o_codes = np.where(
            is_down[order], _OUTAGE_DOWN, _OUTAGE_UP
        ).astype(np.uint8)
        del oidx, ev_times, ev_dev, is_down, down, keep

        # One list of per-kind pieces per column, in the merged column
        # order; each column is gathered and its pieces dropped before
        # the next, so at most one unsorted concatenation is alive.
        na, nc, nr, no = a_times.size, c_times.size, r_times.size, o_times.size
        pieces = [
            [a_times, c_times, r_times, o_times],
            [
                a_codes,
                np.full(nc, _CHANGE, dtype=np.uint8),
                np.full(nr, _READ, dtype=np.uint8),
                o_codes,
            ],
            [a_devs, c_devs, r_devs, o_devs],
            [a_eids, c_eids, r_counts, np.zeros(no, dtype=np.int64)],
            [a_ranks, c_ranks, np.zeros(nr + no)],
            [a_exps, c_exps, np.zeros(nr + no)],
            [np.zeros(na), c_pubs, np.zeros(nr + no)],
        ]
        del a_times, c_times, r_times, o_times, a_codes, o_codes, a_devs
        del c_devs, r_devs, o_devs, a_eids, c_eids, r_counts, a_ranks
        del c_ranks, a_exps, c_exps, c_pubs
        times, pieces[0] = np.concatenate(pieces[0]), None
        # Stable by time: ties keep concatenation order = registration
        # order across kinds, per-kind order within a kind — the scalar
        # engine's exact (time, seq) order.
        order = np.argsort(times, kind="stable")
        columns = [times[order]]
        del times
        for k in range(1, len(pieces)):
            column, pieces[k] = np.concatenate(pieces[k]), None
            columns.append(column[order])
            del column
        self.m_columns = tuple(columns)
        self.m_count = order.size
        self.sim.add_batch_stream(columns[0], self._pump)

    # ------------------------------------------------------------------
    # The pump (engine batch-pop contract; see Simulator.add_batch_stream)
    # ------------------------------------------------------------------
    def _pump(
        self, pos: int, base: int, cap_time: float, cap_seq: int,
        until: float,
    ) -> int:
        sim = self.sim
        heap = sim._heap
        lo = self.block_lo
        times, m_codes, m_devs, m_ints, m_ranks, m_exps, m_pubs = self.block
        cols = self.cols
        resident = cols.resident
        net = cols.network
        qsize = cols.queue_size
        plimit = cols.prefetch_limit
        held = cols.held
        waiting_at = cols.proxy_queue
        holds = cols.proxy_holding
        timers = cols.timers
        logs = cols.read_log
        accepted = cols.accepted
        forwarded = cols.forwarded
        pulled = cols.pulled
        reads = cols.reads
        outage_reads = cols.outage_reads
        empty_reads = cols.empty_reads
        consumed = cols.consumed
        read_ids = cols.read_ids
        delay_sums = cols.read_delay_sum
        old_reads = cols.old_reads
        old_times = cols.old_times
        # Fault row state: None in a clean shard, whose forwards land at
        # once.
        forward = None if cols.plans is None else self._forward
        clean = forward is None
        parked = cols.parked
        send = self._send
        notify = self._notify
        arrive_expiring = self._arrive_expiring
        online = self.online_kind
        window = self.policy.ma_window
        limit_for = self.limits.limit_for
        acc = self.accumulator
        push_sketch = None if acc is None else acc.read_delay_sketch.push
        push_moments = None if acc is None else acc.read_delay_moments.push
        seq_mark = sim._seq_next
        # ``i`` indexes the boxed block, which starts at stream position
        # ``lo``; the cap's sequence number is the block index ``cap_i``.
        i = pos - lo
        stop = len(times)
        end = self.m_count
        cap_i = cap_seq - base - lo
        while True:
            if i == stop:
                # Leaving the block: box the next one. A drained stream is
                # never re-entered; free it, since row timers left in the
                # heap can hold this dispatcher in a cycle after the run.
                lo += i
                i = 0
                if lo >= end:
                    self.m_columns = self.block = ()
                    break
                self.block_lo = lo
                self.block = block = tuple(
                    column[lo : lo + BLOCK].tolist() for column in self.m_columns
                )
                times, m_codes, m_devs, m_ints, m_ranks, m_exps, m_pubs = block
                stop = len(times)
                cap_i = cap_seq - base - lo
            t = times[i]
            if t > until:
                break
            if t > cap_time or (t == cap_time and i >= cap_i):
                if not (heap and heap[0][1] == cap_seq and heap[0][2].cancelled):
                    break
                # A cancelled timer caps the run only for the engine to
                # discard it: discard it here and go on.
                heappop(heap)
                cap_time, cap_seq = heap[0][:2] if heap else (math.inf, 0)
                cap_i = cap_seq - base - lo
                continue
            sim._now = t
            code = m_codes[i]
            d = m_devs[i]
            if code == _ARRIVE:
                entry = (-m_ranks[i], t, m_ints[i], m_exps[i])
                if resident[d]:
                    accepted[d] += 1
                    if net[d] and (online or qsize[d] < plimit[d]):
                        # Forwarded on arrival: the proxy's estimate
                        # grows and the device holds it — at once on a
                        # clean link, once it lands under a fault spec.
                        qsize[d] += 1
                        forwarded[d] += 1
                        if clean:
                            holding = held[d]
                            if holding is None:
                                held[d] = [entry]
                            else:
                                holding.append(entry)
                            i += 1
                            continue
                        # The ladder may arm timers: on to the cap refresh.
                        forward(d, entry)
                    else:
                        # Link down or no client room: the proxy queues it.
                        waiting = waiting_at[d]
                        if waiting is None:
                            waiting_at[d] = [entry]
                        else:
                            heappush(waiting, entry)
                        i += 1
                        continue
                else:
                    notify(d, entry)
            elif code == _ARRIVE_EXPIRING:
                # Arms timers: on to the cap refresh.
                entry = (-m_ranks[i], t, m_ints[i], m_exps[i])
                if resident[d]:
                    arrive_expiring(d, entry)
                else:
                    notify(d, entry)
            elif code == _OUTAGE_DOWN:
                # (Branch order is by event frequency: a typical
                # campaign carries several outage transitions per read.)
                if resident[d]:
                    net[d] = 0
                else:
                    cols.links[d].set_status(_DOWN)
            elif code == _OUTAGE_UP:
                # A resident binding runs the link's listener cascade on
                # its row: under a fault spec its parked retries resume
                # first, as LastHopLink.set_status resumes them before
                # its listeners; then the queue report, the log replay
                # and the proxy's flush of its queue.
                if resident[d]:
                    if not net[d]:
                        net[d] = 1
                        if parked is not None and parked[d] is not None:
                            for entry, attempt in parked[d]:
                                sim.schedule(0.0, self._attempt, d, entry, attempt)
                            parked[d] = None
                        holding = held[d]
                        size = len(holding) if holding else 0
                        log = logs[d]
                        if log is not None:
                            logs[d] = None
                            if not clean:
                                # The plan's stale duplicates, then
                                # on_read_report's sort by time (a clean
                                # log is in event order already).
                                plan = self.plan_for(d)
                                log, injected = plan.corrupt_read_report(log)
                                cols.report_entries_corrupted[d] += injected
                                log.sort(key=_time_of)
                            sizes = old_reads[d]
                            if sizes is None:
                                sizes = old_reads[d] = MovingAverage(window)
                                gaps = old_times[d] = IntervalAverage(window)
                            else:
                                gaps = old_times[d]
                            for when, count in log:
                                sizes.push(float(count))
                                last = gaps.last
                                if last is None or when >= last:
                                    gaps.push(when)
                            plimit[d] = limit_for(sizes.value)
                        waiting = waiting_at[d]
                        if waiting:
                            # try_forwarding: outgoing (ONLINE) goes
                            # whole, prefetch up to the limit; pushes. An
                            # entry due now expires at the proxy instead.
                            budget = plimit[d]
                            sent = []
                            while waiting and (online or size < budget):
                                entry = heappop(waiting)
                                if entry[3] <= t:
                                    self._disarm(d, entry[2])
                                    cols.expired[d] += 1
                                    continue
                                sent.append(entry)
                                size += 1
                            if not waiting:
                                waiting_at[d] = None
                            if sent:
                                forwarded[d] += len(sent)
                                if clean and timers[d] is None:
                                    if holding is None:
                                        held[d] = sent
                                    else:
                                        holding.extend(sent)
                                else:
                                    send(d, sent)
                        qsize[d] = size
                else:
                    cols.links[d].set_status(_UP)
            elif code == _READ:
                n = m_ints[i]
                if resident[d]:
                    reads[d] += 1
                    holding = held[d]
                    if net[d]:
                        # on_read: the moving-average bookkeeping,
                        # the queue-size sync and the limit
                        # recompute ...
                        sizes = old_reads[d]
                        if sizes is None:
                            sizes = old_reads[d] = MovingAverage(window)
                            gaps = old_times[d] = IntervalAverage(window)
                        else:
                            gaps = old_times[d]
                        sizes.push(float(n))
                        gaps.push(t)
                        budget = plimit[d] = limit_for(sizes.value)
                        size = len(holding) if holding else 0
                        if waiting_at[d] or holds[d]:
                            # ... and, with anything at the proxy, the
                            # prune of what is due now and the exchange:
                            # slot by slot through the top n, the
                            # device's top entry wins rank ties and the
                            # proxy's (from either queue) is pulled; the
                            # queue then tops the client up (pulled too).
                            if timers[d] is not None:
                                self._prune(d, t)
                            waiting = waiting_at[d]
                            hold = holds[d]
                            if size > 1:
                                holding.sort()
                            sent = []
                            kept = 0
                            slots = n
                            while slots and (waiting or hold):
                                top = (
                                    waiting
                                    if not hold or waiting and waiting[0] < hold[0]
                                    else hold
                                )
                                if kept < size and holding[kept][0] <= top[0][0]:
                                    kept += 1
                                elif top is waiting:
                                    sent.append(heappop(waiting))
                                else:
                                    sent.append(hold.pop(0))
                                slots -= 1
                            size += len(sent)
                            while size < budget and waiting:
                                sent.append(heappop(waiting))
                                size += 1
                            if not waiting:
                                waiting_at[d] = None
                            if not hold:
                                holds[d] = None
                            if sent:
                                forwarded[d] += len(sent)
                                pulled[d] += len(sent)
                                if clean and timers[d] is None:
                                    if holding is None:
                                        holding = held[d] = sent
                                    else:
                                        holding.extend(sent)
                                else:
                                    send(d, sent)
                                    holding = held[d]
                        qsize[d] = size
                    else:
                        # Offline: the device logs the read for the
                        # next UP's report.
                        outage_reads[d] += 1
                        log = logs[d]
                        if log is None:
                            logs[d] = [(t, n)]
                        else:
                            log.append((t, n))
                    # The device consumes its top-n locally
                    # (ClientDevice._consume: everything held is at
                    # or above the threshold; one due now is skipped).
                    taken = None
                    if holding and n > 0:
                        qlen = len(holding)
                        if qlen > 1:
                            holding.sort()
                        if n >= qlen:
                            taken = holding
                            held[d] = None
                        else:
                            taken = holding[:n]
                            del holding[:n]
                        if timers[d] is not None:
                            taken = self._read_expiring(d, taken, t)
                    if taken:
                        total = delay_sums[d]
                        if push_sketch is None:
                            for entry in taken:
                                total += t - entry[1]
                        else:
                            for entry in taken:
                                age = t - entry[1]
                                total += age
                                push_sketch(age)
                                push_moments(age)
                        delay_sums[d] = total
                        consumed[d] += len(taken)
                        if read_ids is not None:
                            read_ids[d].extend([entry[2] for entry in taken])
                    else:
                        empty_reads[d] += 1
                else:
                    cols.clients[d].perform_read(cols.topics[d], n)
            elif code == _CHANGE:
                # Materialized at wiring: it needs the proxy's history.
                notify(d, (-m_ranks[i], m_pubs[i], m_ints[i], m_exps[i]))
            elif code == _ARRIVE_DELAYED:
                # _handle_new_event's delay stage on the row: accepted,
                # then held back by the proxy's own timer. The schedule
                # draws a sequence number: on to the cap refresh.
                entry = (-m_ranks[i], t, m_ints[i], m_exps[i])
                if resident[d]:
                    accepted[d] += 1
                    cols.delayed[d] += 1
                    sim.schedule(self.delay, self._delay_timeout, d, entry)
                else:
                    notify(d, entry)
            else:
                # Filtered / dead-on-arrival: counters only on a row.
                if resident[d]:
                    if code == _ARRIVE_FILTERED:
                        cols.filtered[d] += 1
                    else:
                        cols.dead[d] += 1
                    i += 1
                    continue
                notify(d, (-m_ranks[i], t, m_ints[i], m_exps[i]))
            i += 1
            if sim._seq_next != seq_mark:
                seq_mark = sim._seq_next
                if heap:
                    cap_time, cap_seq, _top = heap[0]
                    cap_i = cap_seq - base - lo
        return lo + i - pos

    def _notify(self, d: int, entry) -> None:
        """``NOTIFICATION`` for an arrival (or a rank change) of binding
        ``d``, which was materialized at wiring."""
        self.proxy.on_notification(row_notification(self.cols.topics[d], entry))

    def _arrive_expiring(self, d: int, entry) -> None:
        """``_handle_new_event`` and ``try_forwarding`` for a live
        expiring arrival on row ``d``."""
        cols = self.cols
        policy = self.policy
        online = self.online_kind
        room = cols.network[d] and (
            online or cols.queue_size[d] < cols.prefetch_limit[d]
        )
        threshold = policy.expiration_threshold
        if threshold is None:  # the read-interval average, as on_read sets it
            threshold = policy.initial_expiration_threshold
            if cols.old_times[d] is not None:
                threshold = cols.old_times[d].value_or(threshold)
        hold = not online and entry[3] - entry[1] < threshold
        delay = not hold and self.delay > 0
        cols.accepted[d] += 1
        if room and not hold and not delay:
            # Forwarded at once: _do_forward cancels the proxy's timer
            # before it can fire, so only its sequence number is drawn.
            self.sim._seq_next += 1
            self._deliver(d, entry)
            return
        self._arm(d, entry, self._expiration_timeout)
        if delay:
            cols.delayed[d] += 1
            handle = self.sim.schedule(self.delay, self._delay_timeout, d, entry)
            cols.delay_timers[d] = {**(cols.delay_timers[d] or {}), entry[2]: handle}
            return
        column = cols.proxy_holding if hold else cols.proxy_queue
        if column[d] is None:
            column[d] = [entry]
        else:
            (insort if hold else heappush)(column[d], entry)

    def _delay_timeout(self, d: int, entry) -> None:
        """``LastHopProxy._delay_timeout`` and ``try_forwarding`` on row
        ``d``: a forward with the link up and room (the queue is then
        empty), else the queue."""
        cols = self.cols
        cols.delayed[d] -= 1
        if entry[3] == entry[3]:
            del cols.delay_timers[d][entry[2]]
            cols.delay_timers[d] = cols.delay_timers[d] or None
        if cols.network[d] and cols.queue_size[d] < cols.prefetch_limit[d]:
            if entry[3] == entry[3]:
                self._disarm(d, entry[2])
            self._deliver(d, entry)
        elif cols.proxy_queue[d] is None:
            cols.proxy_queue[d] = [entry]
        else:
            heappush(cols.proxy_queue[d], entry)

    def _deliver(self, d: int, entry) -> None:
        """``_do_forward`` on row ``d``: received now, or on the ladder."""
        self.cols.queue_size[d] += 1
        self.cols.forwarded[d] += 1
        if self.cols.plans is None:
            self._receive(d, entry)
        else:
            self._forward(d, entry)

    def _send(self, d: int, sent: List) -> None:
        """The forwards of queued entries on row ``d`` (counted by the
        caller), in forwarding order: each expiring one's proxy timer is
        cancelled, then the device receives it (arming its expiry timer)
        or the ladder ships it (which arms the timer when it lands)."""
        cols = self.cols
        if cols.plans is not None:
            for entry in sent:
                if entry[3] == entry[3]:
                    self._disarm(d, entry[2])
                self._forward(d, entry)
            return
        if cols.held[d] is None:
            cols.held[d] = sent
        else:
            cols.held[d].extend(sent)
        timers = cols.timers[d]
        for entry in sent:
            if entry[3] == entry[3]:
                timers[entry[2]].cancelled = True
                self._arm(d, entry, self._expire)

    def _receive(self, d: int, entry) -> None:
        """:meth:`ClientDevice.receive <repro.device.device.ClientDevice.
        receive>` on row ``d``, arming the device's expiry timer."""
        if self.cols.held[d] is None:
            self.cols.held[d] = [entry]
        else:
            self.cols.held[d].append(entry)
        if entry[3] == entry[3]:
            self._arm(d, entry, self._expire)

    # ------------------------------------------------------------------
    # Expiration (§3.3): the proxy's timer and the device's
    # ------------------------------------------------------------------
    def _expiration_timeout(self, d: int, entry) -> None:
        """:meth:`LastHopProxy._expiration_timeout <repro.proxy.proxy.
        LastHopProxy._expiration_timeout>` on row ``d``: the entry leaves
        the delay stage (cancelling its timer) or its queue."""
        cols = self.cols
        self._disarm(d, entry[2])
        if entry[2] in (cols.delay_timers[d] or ()):
            cols.delay_timers[d].pop(entry[2]).cancel()
            cols.delay_timers[d] = cols.delay_timers[d] or None
            cols.delayed[d] -= 1
        else:
            holding = cols.proxy_holding[d]
            at = bisect_left(holding, entry) if holding else None
            if at is not None and at < len(holding) and holding[at] is entry:
                del holding[at]
                cols.proxy_holding[d] = holding or None
            else:
                queue = cols.proxy_queue[d]
                last = queue.pop()
                if last is not entry:
                    # O(log n): the last entry takes its place, and
                    # heapq's own sift moves it up or down from there.
                    at = queue.index(entry)
                    queue[at] = last
                    if at and last < queue[(at - 1) >> 1]:
                        _siftdown(queue, 0, at)
                    else:
                        _siftup(queue, at)
                cols.proxy_queue[d] = queue or None
        cols.expired[d] += 1

    def _expire(self, d: int, entry) -> None:
        """:meth:`ClientDevice._expire <repro.device.device.ClientDevice.
        _expire>` on row ``d``: the device drops the entry unread."""
        cols = self.cols
        self._disarm(d, entry[2])
        cols.held[d].remove(entry)
        cols.held[d] = cols.held[d] or None
        cols.expired_on_device[d] += 1
        if cols.expired_ids is not None:
            cols.expired_ids[d].append(entry[2])

    def _prune(self, d: int, now: float) -> None:
        """``on_read``'s ``prune_expired`` on row ``d``'s two queues: what
        is due now (its timer pends at this very time) expires at once."""
        queued = self.cols.proxy_queue[d] or ()
        for entry in [*queued, *(self.cols.proxy_holding[d] or ())]:
            if entry[3] <= now:
                self._expiration_timeout(d, entry)

    def _read_expiring(self, d: int, taken: List, now: float) -> List:
        """``ClientDevice._consume``'s top n on row ``d``: an entry due
        now stays held; the entries read cancel their expiry timers."""
        due = [entry for entry in taken if entry[3] <= now]
        if due:
            taken = [entry for entry in taken if entry not in due]
            self.cols.held[d] = (self.cols.held[d] or []) + due
        for entry in taken:
            if entry[3] == entry[3]:
                self._disarm(d, entry[2])
        return taken

    def _arm(self, d: int, entry, callback) -> None:
        """``schedule_at(max(expires_at, now), callback, d, entry)`` as
        the entry's timer on row ``d``, minus the finiteness check and
        the handle: the row keeps the event and cancels it by its flag."""
        sim = self.sim
        when = entry[3] if entry[3] > sim._now else sim._now
        seq = sim._seq_next
        sim._seq_next = seq + 1
        event = _ScheduledEvent(when, seq, callback, (d, entry))
        heappush(sim._heap, (when, seq, event))
        if self.cols.timers[d] is None:
            self.cols.timers[d] = {entry[2]: event}
        else:
            self.cols.timers[d][entry[2]] = event

    def _disarm(self, d: int, event_id) -> None:
        """Cancel (unless it fired) and forget ``event_id``'s timer."""
        timers = self.cols.timers[d]
        timers[event_id].cancelled = True
        del timers[event_id]
        self.cols.timers[d] = timers or None

    # ------------------------------------------------------------------
    # The resident ack–retry ladder (shards with a crash-free spec)
    # ------------------------------------------------------------------
    def _forward(self, d: int, entry) -> None:
        """Ship a resident forward over row ``d``'s faulted link: the id
        is not landed until the ladder lands it."""
        inflight = self.cols.inflight
        landing = inflight[d]
        if landing is None:
            inflight[d] = [entry[2]]
        else:
            landing.append(entry[2])
        self._attempt(d, entry, 1)

    def _attempt(self, d: int, entry, attempt: int) -> None:
        """:meth:`LastHopLink._attempt <repro.device.link.LastHopLink.
        _attempt>` on row ``d``, draw for draw and schedule for
        schedule, counting into the row's fault counters."""
        cols = self.cols
        if not cols.network[d]:
            parked = cols.parked[d]
            if parked is None:
                cols.parked[d] = [(entry, attempt)]
            else:
                parked.append((entry, attempt))
            return
        plan = self.plan_for(d)
        event_id = entry[2]
        if plan.drop_delivery(event_id, attempt):
            cols.delivery_drops[d] += 1
            if attempt > plan.spec.max_retries:
                cols.delivery_failures[d] += 1
                return
            cols.delivery_retries[d] += 1
            self.sim.schedule(
                plan.retry_backoff(attempt), self._attempt, d, entry, attempt + 1
            )
            return
        delay = plan.delivery_jitter(event_id, attempt)
        if delay > 0:
            self.sim.schedule(delay, self._land, d, entry)
        else:
            self._land(d, entry)
        if plan.duplicate_delivery(event_id):
            cols.duplicates_delivered[d] += 1
            if delay > 0:
                self.sim.schedule(delay, self._land, d, entry)
            else:
                self._land(d, entry)

    def _land(self, d: int, entry) -> None:
        """:meth:`ClientDevice.receive <repro.device.device.ClientDevice.
        receive>` on row ``d``."""
        cols = self.cols
        landing = cols.inflight[d]
        event_id = entry[2]
        if landing is None or event_id not in landing:
            # The duplicate copy: it lands right after the first (the
            # next sequence number at the same time, or synchronously),
            # so the first is still held and the device dedups it.
            cols.duplicates_deduped[d] += 1
            return
        landing.remove(event_id)
        if not landing:
            cols.inflight[d] = None
        self._receive(d, entry)
