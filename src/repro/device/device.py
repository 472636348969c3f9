"""The mobile client device.

Holds the per-topic queue of unread notifications, expires them locally,
and implements the user's ranked Max/Threshold reads. A read first runs
the paper's READ exchange with the proxy (when the link is up) so the
proxy can ship better data, then consumes the top-N acceptable
notifications from the local queue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.broker.message import Notification
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError, DeviceError
from repro.faults import FaultPlan
from repro.metrics.accounting import RunStats
from repro.proxy.queues import RankedQueue
from repro.sim.engine import EventHandle, Simulator
from repro.types import DeliveryMode, EventId, NetworkStatus, TopicId


@dataclass(frozen=True)
class ReadOutcome:
    """What one user read produced."""

    consumed: Tuple[Notification, ...]
    #: Notifications the proxy shipped during the READ exchange.
    fetched: int
    #: True if the link was down and only the local queue was available.
    offline: bool

    @property
    def count(self) -> int:
        return len(self.consumed)


class ClientDevice:
    """One mobile device, subscribed to one or more topics via its proxy."""

    def __init__(
        self,
        sim: Simulator,
        link: LastHopLink,
        stats: Optional[RunStats] = None,
        report_on_reconnect: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._sim = sim
        self._link = link
        self._stats = stats if stats is not None else RunStats()
        #: Per-run fault realization; used only to corrupt the offline
        #: read-report log (stale/duplicated entries). None = no faults.
        self._faults = faults
        self._queues: Dict[TopicId, RankedQueue] = {}
        self._thresholds: Dict[TopicId, float] = {}
        self._topic_of: Dict[EventId, TopicId] = {}
        self._expiry_handles: Dict[EventId, EventHandle] = {}
        #: Reads performed while the link was down, reported to the proxy
        #: on reconnection so its adaptive moving averages see them.
        self._offline_reads: Dict[TopicId, List[Tuple[float, int]]] = {}
        self._proxy = None
        #: When the link comes back up, announce current per-topic queue
        #: occupancy to the proxy. Mobile devices must announce
        #: themselves on reconnection anyway (that is how the proxy
        #: learns the link is usable), and piggybacking the queue size
        #: keeps the proxy's prefetch accounting from going stale across
        #: outages. Disable for a strictly Figure-7-faithful proxy that
        #: only learns queue sizes from READ exchanges.
        self._report_on_reconnect = report_on_reconnect
        link.attach_device(self)
        link.add_status_listener(self._on_link_status)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_proxy(self, proxy) -> None:
        """Connect the proxy serving this device (for READ exchanges)."""
        self._proxy = proxy

    def add_topic(self, topic: TopicId, threshold: float = 0.0) -> None:
        """Track a topic the device subscribes to."""
        if topic in self._queues:
            raise ConfigurationError(f"topic {topic!r} already tracked by device")
        self._queues[topic] = RankedQueue()
        self._thresholds[topic] = threshold

    # ------------------------------------------------------------------
    # Queue inspection
    # ------------------------------------------------------------------
    def queue_size(self, topic: TopicId) -> int:
        """Unread notifications currently held for ``topic``."""
        return len(self._queue(topic))

    def top_events(self, topic: TopicId, n: int) -> List[Tuple[EventId, float]]:
        """The (id, rank) pairs of the N highest-ranked unread
        notifications — the ``client_events`` of the READ exchange."""
        return [(m.event_id, m.rank) for m in self._queue(topic).top_n(n)]

    def unread(self, topic: TopicId) -> List[Notification]:
        """All unread notifications for a topic, highest rank first."""
        return list(self._queue(topic))

    def iter_unread(self, topic: TopicId) -> Iterator[Notification]:
        """Lazily iterate unread notifications, highest rank first.

        Consumers that stop early (e.g. a threshold cut-off) pay only
        for the prefix they consume; the queue must not be mutated
        while the iterator is live.
        """
        return iter(self._queue(topic))

    def threshold(self, topic: TopicId) -> float:
        """The subscription Threshold the device applies to a topic."""
        self._queue(topic)  # raises DeviceError for unknown topics
        return self._thresholds[topic]

    def take(self, topic: TopicId, event_id: EventId) -> Optional[Notification]:
        """Remove one unread notification and hand it to the caller.

        Used by multi-device cache cooperation: a peer device serves the
        notification to the user, so it leaves this device's queue
        without being counted as read *by this device*. Returns None if
        the notification is not queued here.
        """
        notification = self._queue(topic).get(event_id)
        if notification is None:
            return None
        self._drop(event_id)
        return notification

    def _queue(self, topic: TopicId) -> RankedQueue:
        try:
            return self._queues[topic]
        except KeyError:
            raise DeviceError(f"device does not track topic {topic!r}") from None

    # ------------------------------------------------------------------
    # Downlink (called by the link)
    # ------------------------------------------------------------------
    def receive(self, notification: Notification, mode: DeliveryMode) -> None:
        """Accept one notification from the last hop."""
        queue = self._queue(notification.topic)
        known_topic = self._topic_of.get(notification.event_id)
        if known_topic is not None:
            if known_topic != notification.topic:
                # Event ids are allocated globally by the routing substrate;
                # a cross-topic collision indicates a wiring bug upstream.
                raise DeviceError(
                    f"event {notification.event_id} already tracked under topic "
                    f"{known_topic!r}, cannot also arrive on {notification.topic!r}"
                )
            # Duplicate delivery (a retry raced its ack, or a fault-plan
            # duplicate): the copy is discarded here, making deliveries
            # idempotent at the device while the first copy is unread.
            self._stats.duplicates_deduped += 1
            return
        # The device keeps its own copy of what crossed the hop: a later
        # re-rank at the proxy mutates the proxy's object, and reaches
        # the device only as a retraction (Figure 7, "tell client of
        # rank drop").
        notification = replace(notification)
        queue.add(notification)
        self._topic_of[notification.event_id] = notification.topic
        if notification.expires_at is not None:
            handle = self._sim.schedule_at(
                max(self._sim.now, notification.expires_at),
                self._expire,
                notification.event_id,
            )
            self._expiry_handles[notification.event_id] = handle

    def retract(self, event_id: EventId) -> None:
        """Discard a rank-dropped notification announced by the proxy."""
        if self._drop(event_id):
            self._stats.retracted_on_device += 1

    def _drop(self, event_id: EventId) -> bool:
        """Remove an unread notification wherever it is. True if found."""
        topic = self._topic_of.pop(event_id, None)
        handle = self._expiry_handles.pop(event_id, None)
        if handle is not None:
            handle.cancel()
        if topic is None:
            return False
        return self._queues[topic].remove(event_id) is not None

    def _expire(self, event_id: EventId) -> None:
        self._expiry_handles.pop(event_id, None)
        if self._drop(event_id):
            self._stats.expired_on_device += 1

    def _on_link_status(self, status: NetworkStatus) -> None:
        """Reconnection hook: report queue occupancy to the proxy."""
        if status is not NetworkStatus.UP:
            return
        if not self._report_on_reconnect or self._proxy is None:
            return
        for topic, queue in self._queues.items():
            self._proxy.on_queue_report(topic, len(queue))
            backlog = self._offline_reads.pop(topic, None)
            if backlog:
                if self._faults is not None:
                    backlog, injected = self._faults.corrupt_read_report(backlog)
                    self._stats.report_entries_corrupted += injected
                self._proxy.on_read_report(topic, backlog)

    # ------------------------------------------------------------------
    # User reads
    # ------------------------------------------------------------------
    def perform_read(self, topic: TopicId, n: int) -> ReadOutcome:
        """Execute one user read on a topic.

        When the link is up, first runs the READ exchange so the proxy
        can ship anything better than what the device holds; then
        consumes the top-N acceptable notifications locally. When the
        link is down, only the local queue is available — exactly the
        situation prefetching exists to prepare for.
        """
        self._stats.reads += 1
        fetched = 0
        offline = not self._link.up
        if offline:
            self._stats.reads_during_outage += 1
            if self._report_on_reconnect:
                self._offline_reads.setdefault(topic, []).append((self._sim.now, n))
        elif self._proxy is not None:
            response = self._proxy.on_read(
                topic,
                n,
                queue_size=self.queue_size(topic),
                client_events=self.top_events(topic, n),
            )
            fetched = len(response.sent)

        consumed = self._consume(topic, n)
        if not consumed:
            self._stats.empty_reads += 1
        return ReadOutcome(consumed=tuple(consumed), fetched=fetched, offline=offline)

    def _consume(self, topic: TopicId, n: int) -> List[Notification]:
        """Read (and remove) up to N acceptable unread notifications."""
        queue = self._queue(topic)
        threshold = self._thresholds[topic]
        now = self._sim.now
        consumed: List[Notification] = []
        for candidate in queue.top_n(n):
            if candidate.rank < threshold:
                break  # top_n is rank-ordered; nothing below qualifies
            if candidate.is_expired(now):
                continue  # expiry timer fires this timestamp; skip it
            consumed.append(candidate)
        for item in consumed:
            queue.remove(item.event_id)
            self._topic_of.pop(item.event_id, None)
            handle = self._expiry_handles.pop(item.event_id, None)
            if handle is not None:
                handle.cancel()
            self._stats.record_read(item.event_id, now - item.published_at)
        return consumed
