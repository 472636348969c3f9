"""Ranked notification queues.

The paper's pseudo-code manipulates queues with set notation — union,
difference, and ``get_highest_ranked(N, …)``. :class:`RankedQueue`
provides exactly those operations efficiently: a lazy-deletion binary
heap ordered by (rank descending, arrival order ascending) plus an
id-keyed index for O(1) membership and removal, and a companion
expiration min-heap so pruning touches only members actually due.

Complexity of the READ hot path (M queued, N requested, E expired,
S stale lazy-deletion entries — bounded to O(M) by amortized
compaction):

* ``top_n``: O((N + S) log M) pops on the real heap, which drop the
  S stale entries for good, then N pushes — no heap copy. Reads remove
  the highest-ranked members, so a copying read would pay for every
  earlier read's stale entries again.
* ``highest_ranked`` over k queues: k ``top_n(N)`` calls and a merge
  of at most k·N members.
* ``prune_expired``: O((E + S) log M) — a no-op peek when nothing is
  due, instead of an O(M) scan per READ.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.broker.message import Notification
from repro.types import EventId


def _selection_key(notification: Notification) -> Tuple[float, float, EventId]:
    """Sort key for ranked selection: rank descending, then oldest
    first (publication time, then event id for full determinism)."""
    return (-notification.rank, notification.published_at, notification.event_id)


class RankedQueue:
    """A queue of notifications ordered by rank (highest first).

    Ties break oldest-first — by publication time, then event id — so
    two equally ranked notifications come out in publication order,
    matching a user reading equally important news oldest-first. The
    tie-break is explicit rather than insertion-order so it survives
    re-queues and holds across queue unions.
    """

    #: A heap holding more than ``2·len + _COMPACT_SLACK`` entries is
    #: mostly stale and gets rebuilt; rebuilding at that point costs
    #: O(M) against the Ω(M) lazy deletions that caused it, so the
    #: amortized overhead per mutation is O(1). The rule is written
    #: out in :meth:`add` and :meth:`remove`.
    _COMPACT_SLACK = 16

    def __init__(self, items: Iterable[Notification] = ()) -> None:
        #: heap of (-rank, published_at, event_id); stale entries are
        #: skipped. The entry *is* the selection key, so heap order,
        #: ``top_n`` order, and iteration order always agree. A member
        #: whose rank is mutated without :meth:`reorder` keeps only an
        #: entry at its old rank: ``len`` counts it, reads skip it, and
        #: :meth:`compact` re-keys it — so compaction is *not*
        #: invisible to such a member.
        self._heap: List[Tuple[float, float, EventId]] = []
        #: min-heap of (expires_at, event_id) for the members that can
        #: expire; lazily pruned like ``_heap``.
        self._expiry: List[Tuple[float, EventId]] = []
        self._items: Dict[EventId, Notification] = {}
        for item in items:
            self.add(item)

    def add(self, notification: Notification) -> None:
        """Insert a notification; re-adding one already present updates
        its heap position (used after rank changes)."""
        items = self._items
        heap = self._heap
        items[notification.event_id] = notification
        heapq.heappush(
            heap,
            (-notification.rank, notification.published_at, notification.event_id),
        )
        if notification.expires_at is not None:
            heapq.heappush(self._expiry, (notification.expires_at, notification.event_id))
        # Checked inline: this runs on every mutation.
        if len(heap) > 2 * len(items) + self._COMPACT_SLACK:
            self.compact()

    def remove(self, event_id: EventId) -> Optional[Notification]:
        """Remove by id. Returns the notification or None if absent.

        The heap entry is left in place and skipped lazily when popped.
        """
        items = self._items
        item = items.pop(event_id, None)
        if item is not None and len(self._heap) > 2 * len(items) + self._COMPACT_SLACK:
            self.compact()
        return item

    def reorder(self, notification: Notification) -> None:
        """Re-key a member whose rank changed. No-op if absent."""
        if notification.event_id in self._items:
            self.add(notification)

    def pop_highest(self) -> Optional[Notification]:
        """Remove and return the highest-ranked notification, or None."""
        while self._heap:
            neg_rank, _published_at, event_id = heapq.heappop(self._heap)
            item = self._items.get(event_id)
            if item is None:
                continue  # removed or stale duplicate entry
            if -neg_rank != item.rank:
                continue  # stale entry from before a rank change
            del self._items[event_id]
            return item
        return None

    def peek_highest(self) -> Optional[Notification]:
        """Return (without removing) the highest-ranked notification."""
        while self._heap:
            neg_rank, _published_at, event_id = self._heap[0]
            item = self._items.get(event_id)
            if item is None or -neg_rank != item.rank:
                heapq.heappop(self._heap)
                continue
            return item
        return None

    def top_n(self, n: int) -> List[Notification]:
        """The ``get_highest_ranked(N, queue)`` of the paper's pseudo-code
        — the N highest-ranked members, without removal.

        Pops the real heap until N live members surfaced, dropping for
        good the stale and duplicate entries it passes, then pushes the
        live ones back: O((N + S) log M) with no copy, and a repeated
        call pops only N.
        """
        if n <= 0 or not self._items:
            return []
        heap = self._heap
        items = self._items
        heappop = heapq.heappop
        out: List[Notification] = []
        live: List[Tuple[float, float, EventId]] = []
        previous = None
        while heap and len(out) < n:
            entry = heappop(heap)
            item = items.get(entry[2])
            # Equal entries pop back to back, so comparing against the
            # last live one catches every duplicate.
            if item is None or -entry[0] != item.rank or entry == previous:
                continue  # removed, stale after a rank change, or duplicate
            previous = entry
            live.append(entry)
            out.append(item)
        for entry in live:
            heapq.heappush(heap, entry)
        return out

    def prune_expired(self, now: float) -> List[Notification]:
        """Drop every expired member, returning them (for accounting).

        Only entries actually due at ``now`` are touched (plus any stale
        leftovers sharing their deadline); when nothing is due this is a
        single heap peek.
        """
        expired: List[Notification] = []
        heap = self._expiry
        items = self._items
        while heap and heap[0][0] <= now:
            _expires_at, event_id = heapq.heappop(heap)
            item = items.get(event_id)
            if item is None or not item.is_expired(now):
                continue  # removed meanwhile, or a stale duplicate entry
            del items[event_id]
            expired.append(item)
        return expired

    def compact(self) -> None:
        """Rebuild both heaps, discarding stale lazy-deletion entries."""
        self._heap = [
            (-item.rank, item.published_at, event_id)
            for event_id, item in self._items.items()
        ]
        heapq.heapify(self._heap)
        self._expiry = [
            (item.expires_at, event_id)
            for event_id, item in self._items.items()
            if item.expires_at is not None
        ]
        heapq.heapify(self._expiry)

    @property
    def stale_entries(self) -> int:
        """Number of lazy-deletion leftovers currently in the heap."""
        return len(self._heap) - len(self._items)

    def get(self, event_id: EventId) -> Optional[Notification]:
        return self._items.get(event_id)

    def __contains__(self, key: object) -> bool:
        if isinstance(key, Notification):
            return key.event_id in self._items
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Notification]:
        """Iterate members in rank order (highest first, oldest first
        within a rank).

        For full iteration (``unread``, ``iter_unread``); bounded reads
        use :meth:`top_n`, which copies nothing. The stale prefix is
        purged from the real heap before the O(M) copy, after which
        consumers that stop early pay O(k log M) for the k members they
        consume. Membership is snapshotted at the first ``next()``;
        members removed mid-iteration are skipped from then on.
        """
        self.peek_highest()  # purges the stale prefix
        heap = self._heap.copy()
        items = self._items
        seen: Set[EventId] = set()
        while heap:
            neg_rank, _published_at, event_id = heapq.heappop(heap)
            item = items.get(event_id)
            if item is None or -neg_rank != item.rank or event_id in seen:
                continue  # removed, stale after a rank change, or duplicate
            seen.add(event_id)
            yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankedQueue({len(self._items)} items)"


def highest_ranked(n: int, *queues: RankedQueue) -> List[Notification]:
    """``get_highest_ranked(N, q1 ∪ q2 ∪ …)`` over several queues.

    Members appearing in multiple queues (which the proxy avoids, but
    set semantics permit) are considered once. Equal ranks come out
    oldest-first regardless of which queue holds them.

    Merges each queue's :meth:`RankedQueue.top_n` — exact, because a
    member of the union's top N has at most N - 1 members above it in
    any queue that holds it — so the cost is k ``top_n(N)`` calls plus
    a merge of at most k·N members, independent of queue depth.
    """
    if n <= 0:
        return []
    out: List[Notification] = []
    seen: Set[EventId] = set()
    tops = [queue.top_n(n) for queue in queues]
    for item in heapq.merge(*tops, key=_selection_key):
        if item.event_id in seen:
            continue
        seen.add(item.event_id)
        out.append(item)
        if len(out) >= n:
            break
    return out
