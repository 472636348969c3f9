"""Per-topic proxy state.

Mirrors the variables of the paper's Figure 7 pseudo-code: the three
queues, the event history and forwarded set, the moving averages over
expirations and user reads, the proxy's estimate of the client queue
size, the current prefetch limit / expiration threshold / delay, and the
network status.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.broker.message import Notification
from repro.proxy.moving_average import IntervalAverage, MovingAverage
from repro.proxy.queues import RankedQueue
from repro.proxy.schedule import DeliverySchedule, PushBudget
from repro.sim.engine import EventHandle
from repro.types import EventId, NetworkStatus, TopicId, TopicType


class TopicState:
    """All mutable proxy state for one (device, topic) pair.

    Slotted: one instance lives for an entire run and its fields are
    read on every NOTIFICATION/READ, so the fixed layout buys cheaper
    attribute access and no per-instance ``__dict__``.
    """

    __slots__ = (
        "topic",
        "topic_type",
        "rank_threshold",
        "schedule",
        "push_budget",
        "quiet_wakeup",
        "outgoing",
        "prefetch",
        "holding",
        "history",
        "forwarded",
        "old_reads",
        "old_times",
        "queue_size",
        "prefetch_limit",
        "expiration_threshold",
        "delay",
        "network",
        "expiration_handles",
        "delay_handles",
        "pending_retractions",
        # Per-binding machinery, wired by the proxy's add_binding.
        "transport",
        "stats",
        "tracker",
        "rate",
        "retracted",
        "crashed",
        "crashed_at",
    )

    def __init__(
        self,
        topic: TopicId,
        topic_type: TopicType = TopicType.ON_DEMAND,
        rank_threshold: float = 0.0,
        ma_window: int = 10,
        schedule: Optional[DeliverySchedule] = None,
    ) -> None:
        self.topic = topic
        self.topic_type = topic_type
        #: Subscriber's qualitative limit (the subscription's Threshold).
        self.rank_threshold = rank_threshold
        #: §2.2 delivery refinements (quiet hours, daily push cap,
        #: urgent-interrupt threshold), or None for plain behaviour.
        self.schedule = schedule
        self.push_budget = PushBudget(
            schedule.max_pushes_per_day if schedule is not None else None
        )
        #: Pending wake-up at the end of the current quiet window.
        self.quiet_wakeup: Optional[EventHandle] = None

        # The three queues of Figure 7.
        self.outgoing = RankedQueue()   #: must be forwarded ASAP
        self.prefetch = RankedQueue()   #: okay to prefetch when there is room
        self.holding = RankedQueue()    #: expires too soon to prefetch

        #: Every event ever accepted on the topic (``topic.history``).
        self.history: Dict[EventId, Notification] = {}
        #: Events forwarded to the client (``topic.forwarded``).
        self.forwarded: set = set()

        # Moving averages.
        self.old_reads = MovingAverage(ma_window)      #: ``topic.old_reads``
        self.old_times = IntervalAverage(ma_window)    #: ``topic.old_times``

        #: Proxy's estimate of how many messages sit on the client
        #: (``topic.queue_size``); synced on every READ.
        self.queue_size = 0

        #: Effective knobs, updated by the policy logic.
        self.prefetch_limit: int = 0
        self.expiration_threshold: float = 0.0
        self.delay: float = 0.0

        self.network: NetworkStatus = NetworkStatus.UP

        # Timer bookkeeping (not in the pseudo-code, which leaks timers).
        self.expiration_handles: Dict[EventId, EventHandle] = {}
        self.delay_handles: Dict[EventId, EventHandle] = {}
        #: Rank-drop retractions waiting for the link to come back up,
        #: sent FIFO so the device sees drops in the order they happened.
        #: A plain list (drained from the front): the queue only holds
        #: entries while the link is down, so it stays short, and a list
        #: is far cheaper to allocate than a deque — which matters with
        #: one state per fleet binding.
        self.pending_retractions: List[EventId] = []

        # Per-binding machinery, wired by LastHopProxy at registration
        # (None only between construction and registration).
        self.transport = None          #: downlink to this binding's device
        self.stats = None              #: this binding's RunStats
        self.tracker = None            #: this binding's DelayTracker
        self.rate = None               #: RATE-policy credit state
        #: Events whose retraction has been sent (or queued), per run.
        self.retracted: set = set()
        #: Fail-stop state of this binding's worker (fault injection).
        self.crashed = False
        self.crashed_at = 0.0

    # ------------------------------------------------------------------
    @property
    def mean_read_interval(self) -> Optional[float]:
        """Moving average of the time between user reads."""
        return self.old_times.value

    @property
    def mean_read_size(self) -> Optional[float]:
        """Moving average of the read request size N."""
        return self.old_reads.value

    def queued_event_count(self) -> int:
        """Events currently waiting in any proxy queue."""
        return len(self.outgoing) + len(self.prefetch) + len(self.holding)

    def remove_everywhere(self, event_id: EventId) -> bool:
        """Remove an event from all three queues; True if it was queued."""
        removed = False
        for queue in (self.outgoing, self.prefetch, self.holding):
            if queue.remove(event_id) is not None:
                removed = True
        return removed

    def cancel_timers(self, event_id: EventId) -> None:
        """Cancel any expiration/delay timers still pending for an event."""
        handle = self.expiration_handles.pop(event_id, None)
        if handle is not None:
            handle.cancel()
        handle = self.delay_handles.pop(event_id, None)
        if handle is not None:
            handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopicState({self.topic!r}, out={len(self.outgoing)}, "
            f"pre={len(self.prefetch)}, hold={len(self.holding)}, "
            f"client≈{self.queue_size}, limit={self.prefetch_limit})"
        )
