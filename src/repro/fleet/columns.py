"""The shard's binding table: one row per device, local-id indexed.

The fleet runner decides each binding's tier once, at wiring, and
records it in ``resident``:

* **Array-resident** (``resident[d] == 1``): row ``d`` is the binding's
  *only* state for the whole run. No ``TopicState`` / ``LastHopLink`` /
  ``ClientDevice`` / ``SketchedStats`` exists for it; the batch pump's
  resident handlers (:mod:`repro.fleet.batch`) read and write the row
  directly — link status, the proxy's client-queue estimate and
  prefetch limit, its queue (standing for ``outgoing`` under ONLINE and
  ``prefetch`` otherwise) and its ``holding`` queue, the notifications
  the device holds and its offline read log, the per-device counts, the
  ``read_delay_sum`` partial, and the read-size / read-interval
  averages (created on first use). Under a fixed positive delay the row
  counts the arrivals waiting in the §3.4 delay stage; the entries ride
  on the delay timers the pump arms. An expiring entry (§3.3) carries
  its ``expires_at``; its pending expiration timer (the proxy's, or the
  device's once the device holds it) is in ``timers``.
* **Materialized** (``resident[d] == 0``): the binding's object graph,
  built by ``ShardWiring.materialize`` in :mod:`repro.fleet.runner`
  before the run, takes all of its events on the scalar callbacks. The
  row points at the objects through ``topics`` / ``stats`` / ``links``
  / ``clients`` and is otherwise never touched.

Resident-row invariants (also :meth:`FleetColumns.verify_sync`): the
queue is non-empty only while the link is down or, outside ONLINE, the
client has no room — the only states in which the proxy would keep an
arrival; the log is non-empty only while the link is down; every
accepted arrival was forwarded, is queued, held or delayed, or expired
at the proxy; every forward was read, is held, expired on the device or
(under faults) has not landed; every expiring entry kept has one timer.

A shard with a fault spec allocates a second group of row state, which
clean shards never pay for: the deliveries forwarded but not landed (in
flight on the ack–retry ladder, or abandoned), the retries parked while
the link is down, the delivery-fault counters and the count of
corrupted read-report entries, and the device's
:class:`~repro.faults.FaultPlan` (built on its first draw). Only a
crash-free spec keeps rows resident at all, so nothing here models a
crash.

A binding's counts live in its row or in its ``SketchedStats``, never
both: the fold reads the row of a resident binding and the stats object
of a materialized one (``FleetAccumulator.add_shard``, or
``device_stats`` for one binding). A table built with ``read_ids=True``
— the one-device shard behind ``run_scenario``, whose §3.1 loss
compares identity sets — also keeps the ids each row read or saw
expire on the device; its forwarded ids are those plus the ids it holds
or has not landed, since nothing else leaves a row.

Per-item columns are Python lists / ``bytearray`` rather than numpy
arrays: the pump reads them one element at a time, and every
``numpy_array[d]`` boxes a fresh scalar.
"""

from __future__ import annotations

from typing import List, Optional

from repro.broker.message import DEFAULT_SIZE_BYTES, Notification
from repro.metrics.accounting import DELIVERY_FAULT_FIELDS
from repro.types import EventId, TopicId


def row_notification(topic: TopicId, entry) -> Notification:
    """The notification a row's ``(-rank, published_at, event_id,
    expires_at)`` entry stands for (NaN = never expires; rows hold only
    default-size notifications)."""
    neg_rank, published_at, event_id, expires_at = entry
    return Notification(
        event_id=EventId(event_id),
        topic=topic,
        rank=-neg_rank,
        published_at=published_at,
        expires_at=None if expires_at != expires_at else expires_at,
    )


class FleetColumns:
    """Per-binding state of one shard, as local-id indexed columns."""

    __slots__ = (
        "devices", "online", "resident", "network", "queue_size",
        "prefetch_limit", "held", "proxy_queue", "proxy_holding", "read_log",
        "timers", "delay_timers", "accepted", "delayed", "expired",
        "forwarded", "pulled", "expired_on_device", "filtered", "dead", "reads",
        "outage_reads", "empty_reads", "consumed", "read_delay_sum",
        "old_reads", "old_times", "topics", "stats", "links", "clients",
        "inflight", "parked", "plans", "read_ids", "expired_ids",
    ) + DELIVERY_FAULT_FIELDS

    #: Payload bytes of every forward a resident row counts: the
    #: resident arrival handler builds no ``Notification``, so the
    #: default size is the only one it can mean.
    forward_bytes = DEFAULT_SIZE_BYTES

    def __init__(
        self,
        devices: int,
        initial_prefetch_limit: int,
        faulted: bool = False,
        online: bool = False,
        read_ids: bool = False,
        expiring: bool = True,
    ) -> None:
        n = devices
        self.devices = n
        #: Whether the shard's policy is ONLINE: a row's proxy queue is
        #: then the binding's ``outgoing`` (flushed whole on UP), else
        #: its ``prefetch`` (flushed up to the prefetch limit).
        self.online = online
        #: 1 if the row is the binding's only state (no objects).
        self.resident = bytearray(b"\x01") * n

        # -- resident-tier state ----------------------------------------
        #: 1 while the binding's last-hop link is UP.
        self.network = bytearray(b"\x01") * n
        #: The proxy's estimate of the client queue occupancy.
        self.queue_size: List[int] = [0] * n
        #: The binding's current prefetch budget (policy-effective).
        self.prefetch_limit: List[int] = [initial_prefetch_limit] * n
        #: Notifications the device holds unread, as ``(-rank,
        #: published_at, event_id, expires_at)`` (NaN = never): the
        #: ranked-selection key of :class:`~repro.proxy.queues.
        #: RankedQueue` first, so a plain sort is read order. None =
        #: nothing held (so for every such column).
        self.held: List = [None] * n
        #: The proxy's queue, a heap of the same entries (``heappop`` is
        #: ``RankedQueue.pop_highest``), and its ``holding`` queue of the
        #: arrivals whose lifetime is below the expiration threshold (only
        #: a READ forwards them), a sorted list: most of them leave on
        #: their own timer, whose entry a bisection finds. The holding
        #: queue and both timer columns below hold only expiring
        #: entries: without ``expiring`` the three are one shared list
        #: that stays None.
        shared = None if expiring else [None] * n
        self.proxy_queue: List = [None] * n
        self.proxy_holding: List = shared or [None] * n
        #: The device's offline read log, ``(time, n)`` per read while
        #: the link is down, in event order.
        self.read_log: List = [None] * n
        #: ``{event_id: engine event}`` of each expiring entry's pending
        #: expiration timer (the proxy's, or the device's once it holds
        #: the entry), and ``{event_id: EventHandle}`` of the delay-stage
        #: timers of the expiring entries in that stage.
        self.timers: List = shared or [None] * n
        self.delay_timers: List = shared or [None] * n
        #: Live arrivals the proxy accepted (forwarded, queued, held,
        #: delayed, or expired at the proxy), those still in the delay
        #: stage, and those that expired at the proxy.
        self.accepted: List[int] = [0] * n
        self.delayed: List[int] = [0] * n
        self.expired: List[int] = [0] * n
        #: Distinct forwards, how many of them a READ pulled (the rest
        #: were pushed), and how many expired on the device unread.
        self.forwarded: List[int] = [0] * n
        self.pulled: List[int] = [0] * n
        self.expired_on_device: List[int] = [0] * n
        #: Arrivals filtered by the rank threshold / dead on arrival.
        self.filtered: List[int] = [0] * n
        self.dead: List[int] = [0] * n
        #: User reads, those made while the link was down (the rest
        #: were READ requests), and the empty ones.
        self.reads: List[int] = [0] * n
        self.outage_reads: List[int] = [0] * n
        self.empty_reads: List[int] = [0] * n
        #: Notifications read by the user.
        self.consumed: List[int] = [0] * n
        #: Sum of read ages.
        self.read_delay_sum: List[float] = [0.0] * n
        #: ``TopicState.old_reads`` / ``.old_times`` of the binding,
        #: created when its first read reaches the proxy (a READ, or a
        #: replayed log entry).
        self.old_reads: List = [None] * n
        self.old_times: List = [None] * n

        # -- the object graph (None while resident) ----------------------
        self.topics: List = [None] * n
        self.stats: List = [None] * n
        self.links: List = [None] * n
        self.clients: List = [None] * n

        # -- fault row state (each column None in a clean shard) --------
        #: Event ids forwarded but not landed on the device: in flight
        #: on the ladder, or abandoned. None = none.
        self.inflight: Optional[List] = [None] * n if faulted else None
        #: Retries that fired while the link was down, as ``(entry,
        #: attempt)`` in firing order; resumed on UP. None = none.
        self.parked: Optional[List] = [None] * n if faulted else None
        #: The device's FaultPlan, built on first use.
        self.plans: Optional[List] = [None] * n if faulted else None
        #: One count column per ``DELIVERY_FAULT_FIELDS`` name.
        for name in DELIVERY_FAULT_FIELDS:
            setattr(self, name, [0] * n if faulted else None)

        #: Event ids the user read, and that expired on the device,
        #: on a resident row — kept only for a caller that needs
        #: the identity sets (``device_stats`` in :mod:`repro.metrics.
        #: streaming`); None in a fleet campaign, whose fold needs only
        #: the counts.
        self.read_ids: Optional[List] = [[] for _ in range(n)] if read_ids else None
        self.expired_ids = [[] for _ in range(n)] if read_ids else None

    @property
    def materialized_share(self) -> float:
        """Fraction of the shard's bindings materialized at wiring."""
        if not self.devices:
            return 0.0
        return 1.0 - sum(self.resident) / self.devices

    # ------------------------------------------------------------------
    # Invariant audit (test surface)
    # ------------------------------------------------------------------
    def verify_sync(self) -> List[str]:
        """Check both tiers' invariants; returns human-readable
        violations (empty = in sync).

        Materialized rows: that the row holds no row state (the objects
        are the binding's only state). Resident rows: the row against
        itself — no objects, a queue only where
        the proxy would keep one, a log only while the link is down,
        every accepted arrival forwarded, queued, held, delayed or
        expired, every forward read, held, expired or not landed, one
        timer per expiring entry kept, retries parked only while the
        link is down, the averages present exactly when a read reached
        the proxy).
        """
        violations: List[str] = []
        row_state = [
            self.held, self.proxy_queue, self.proxy_holding, self.read_log,
            self.timers, self.delay_timers, self.old_reads, self.old_times,
        ]
        if self.plans is not None:
            row_state += [self.inflight, self.parked]
        for d in range(self.devices):
            if self.resident[d]:
                violations.extend(self._verify_resident(d))
            elif any(column[d] is not None for column in row_state):
                violations.append(f"device {d}: materialized binding has row state")
        return violations

    def _verify_resident(self, d: int) -> List[str]:
        violations: List[str] = []
        if any(
            column[d] is not None
            for column in (self.topics, self.stats, self.links, self.clients)
        ):
            violations.append(f"device {d}: resident row owns objects")
        up = self.network[d]
        held = len(self.held[d] or ())
        queued = len(self.proxy_queue[d] or ())
        holding = len(self.proxy_holding[d] or ())
        logged = len(self.read_log[d] or ())
        if queued and up and (
            self.online or self.queue_size[d] < self.prefetch_limit[d]
        ):
            violations.append(
                f"device {d}: {queued} queued at the proxy while the link "
                f"is up with room"
            )
        if logged and up:
            violations.append(f"device {d}: offline read log kept while the link is up")
        at_proxy = queued + holding + self.delayed[d] + self.expired[d]
        if self.accepted[d] != self.forwarded[d] + at_proxy:
            violations.append(
                f"device {d}: {self.accepted[d]} accepted vs "
                f"{self.forwarded[d]} forwarded + {at_proxy} queued, held, "
                f"delayed or expired at the proxy"
            )
        kept = [*(self.held[d] or ()), *(self.proxy_queue[d] or ())]
        kept += self.proxy_holding[d] or ()
        expiring = [*(self.delay_timers[d] or ())]
        expiring += [entry[2] for entry in kept if entry[3] == entry[3]]
        if sorted(self.timers[d] or ()) != sorted(expiring):
            violations.append(f"device {d}: expiration timers miss their entries")
        landing = 0
        if self.plans is not None:
            inflight = self.inflight[d] or ()
            landing = len(inflight)
            parked = self.parked[d] or ()
            if parked and up:
                violations.append(f"device {d}: retries parked while the link is up")
            if any(entry[2] not in inflight for entry, _attempt in parked):
                violations.append(f"device {d}: a parked retry is not in flight")
        gone = self.consumed[d] + self.expired_on_device[d]
        if self.forwarded[d] != gone + held + landing:
            violations.append(
                f"device {d}: {self.forwarded[d]} forwarded vs {gone} read or "
                f"expired + {held} held + {landing} not landed"
            )
        # A landing after the last queue report can lift what the device
        # holds above the proxy's estimate; only a clean row is exact.
        if self.plans is None and self.queue_size[d] < held:
            violations.append(
                f"device {d}: queue_size estimate {self.queue_size[d]} "
                f"below the {held} notifications held"
            )
        if self.read_ids is not None and (
            len(self.read_ids[d]) != self.consumed[d]
            or len(self.expired_ids[d]) != self.expired_on_device[d]
        ):
            violations.append(f"device {d}: read or expired ids miss their counts")
        reads = self.reads[d]
        if self.empty_reads[d] > reads or self.outage_reads[d] > reads:
            violations.append(f"device {d}: more empty or outage reads than reads")
        # Every read reached the proxy but those still in the log, and
        # a corrupted report added its duplicates.
        reported = reads - logged
        if self.plans is not None:
            reported += self.report_entries_corrupted[d]
        averages = self.old_reads[d]
        if (averages is None) != (self.old_times[d] is None) or (
            averages is None
        ) != (reported == 0):
            violations.append(
                f"device {d}: read averages do not match {reported} reported reads"
            )
        elif averages is not None and averages.count != min(
            reported, averages.window
        ):
            violations.append(
                f"device {d}: read-size window holds {averages.count} of "
                f"{reported} reported reads"
            )
        return violations
