"""Ranked notification queues.

The paper's pseudo-code manipulates queues with set notation — union,
difference, and ``get_highest_ranked(N, …)``. :class:`RankedQueue`
keeps one list of selection keys sorted with :mod:`bisect`, highest
ranked last: ``pop_highest`` is a ``list.pop()``, ``top_n(N)`` a slice.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
    re-queues and holds across queue unions. A member stays at the key
    it was added or reordered with: a rank mutated in place moves it
    only once :meth:`reorder` is called.
    """

    def __init__(self, items: Iterable[Notification] = ()) -> None:
        #: ``(rank, -published_at, -event_id)``: ``_selection_key`` order
        #: reversed, so the highest-ranked sits last.
        self._keys: List[Tuple[float, float, int]] = []
        self._key_of: Dict[EventId, Tuple[float, float, int]] = {}
        self._items: Dict[EventId, Notification] = {}
        #: ``expires_at`` of the members that can expire, and their
        #: ``(expires_at, event_id)`` sorted: a prune pops its due prefix.
        self._expires: Dict[EventId, float] = {}
        self._expiry: List[Tuple[float, EventId]] = []
        for item in items:
            self.add(item)

    def add(self, notification: Notification) -> None:
        """Insert a notification; re-adding a member re-keys it."""
        event_id = notification.event_id
        self.remove(event_id)
        key = (notification.rank, -notification.published_at, -event_id)
        insort(self._keys, key)
        self._key_of[event_id] = key
        self._items[event_id] = notification
        if notification.expires_at is not None:
            self._expires[event_id] = notification.expires_at
            insort(self._expiry, (notification.expires_at, event_id))

    def remove(self, event_id: EventId) -> Optional[Notification]:
        """Remove by id. Returns the notification or None if absent."""
        item = self._items.pop(event_id, None)
        if item is not None:
            keys = self._keys
            del keys[bisect_left(keys, self._key_of.pop(event_id))]
            self._forget_expiry(event_id)
        return item

    def _forget_expiry(self, event_id: EventId) -> None:
        expires_at = self._expires.pop(event_id, None)
        if expires_at is not None:
            expiry = self._expiry
            del expiry[bisect_left(expiry, (expires_at, event_id))]

    def reorder(self, notification: Notification) -> None:
        """Re-key a member whose rank changed. No-op if absent."""
        if notification.event_id in self._items:
            self.add(notification)

    def pop_highest(self) -> Optional[Notification]:
        """Remove and return the highest-ranked notification, or None."""
        if not self._keys:
            return None
        event_id = -self._keys.pop()[2]
        del self._key_of[event_id]
        self._forget_expiry(event_id)
        return self._items.pop(event_id)

    def peek_highest(self) -> Optional[Notification]:
        """Return (without removing) the highest-ranked notification."""
        return self._items[-self._keys[-1][2]] if self._keys else None

    def top_n(self, n: int) -> List[Notification]:
        """The ``get_highest_ranked(N, queue)`` of the paper's pseudo-code
        — the N highest-ranked members, without removal."""
        if n <= 0:
            return []
        items = self._items
        return [items[-key[2]] for key in reversed(self._keys[-n:])]

    def prune_expired(self, now: float) -> List[Notification]:
        """Drop every expired member, returning them (for accounting) in
        ``(expires_at, event_id)`` order: the due prefix of the sorted
        expiry list, found by bisection."""
        expiry = self._expiry
        cut = bisect_right(expiry, (now, math.inf))
        due = expiry[:cut]
        del expiry[:cut]
        for _expires_at, event_id in due:
            del self._expires[event_id]
        return [self.remove(event_id) for _expires_at, event_id in due]

    def get(self, event_id: EventId) -> Optional[Notification]:
        return self._items.get(event_id)

    def __contains__(self, key: object) -> bool:
        return (key.event_id if isinstance(key, Notification) else key) in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Notification]:
        """Iterate members in rank order (highest first, oldest first
        within a rank). Membership is snapshotted at the first
        ``next()``; members removed mid-iteration are skipped."""
        items = self._items
        for key in self._keys[::-1]:
            item = items.get(-key[2])
            if item is not None:
                yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankedQueue({len(self._items)} items)"


def highest_ranked(n: int, *queues: RankedQueue) -> List[Notification]:
    """``get_highest_ranked(N, q1 ∪ q2 ∪ …)`` over several queues.

    Members appearing in multiple queues (which the proxy avoids, but
    set semantics permit) are considered once. Equal ranks come out
    oldest-first regardless of which queue holds them. Merging each
    queue's :meth:`RankedQueue.top_n` is exact: a member of the union's
    top N has at most N - 1 members above it in any queue that holds it.
    """
    if n <= 0:
        return []
    merged = heapq.merge(*(queue.top_n(n) for queue in queues), key=_selection_key)
    return list(dict.fromkeys(merged))[:n]  # equal ids hash equal: first wins
