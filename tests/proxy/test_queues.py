"""Unit tests for the ranked queues."""

import heapq
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.message import Notification
from repro.proxy import queues as queues_module
from repro.proxy.queues import RankedQueue, highest_ranked
from repro.types import EventId, TopicId


def note(event_id, rank, published_at=0.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TopicId("t"),
        rank=rank,
        published_at=published_at,
        expires_at=expires_at,
    )


class TestBasics:
    def test_empty_queue(self):
        queue = RankedQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.pop_highest() is None
        assert queue.peek_highest() is None
        assert queue.top_n(5) == []

    def test_pop_highest_rank_first(self):
        queue = RankedQueue([note(1, 1.0), note(2, 3.0), note(3, 2.0)])
        assert [queue.pop_highest().event_id for _ in range(3)] == [2, 3, 1]

    def test_ties_break_by_insertion_order(self):
        queue = RankedQueue([note(1, 2.0), note(2, 2.0), note(3, 2.0)])
        assert [queue.pop_highest().event_id for _ in range(3)] == [1, 2, 3]

    def test_ties_break_oldest_first_by_publication_time(self):
        # Insertion order contradicts publication order; the documented
        # contract (oldest first) must win.
        queue = RankedQueue(
            [note(1, 2.0, published_at=30.0), note(2, 2.0, published_at=10.0),
             note(3, 2.0, published_at=20.0)]
        )
        assert [queue.pop_highest().event_id for _ in range(3)] == [2, 3, 1]

    def test_ties_survive_requeue(self):
        # Popping and re-adding the oldest must not demote it to the
        # back of the tie (as an insertion-sequence tie-break would).
        old, new = note(1, 2.0, published_at=0.0), note(2, 2.0, published_at=50.0)
        queue = RankedQueue([old, new])
        popped = queue.pop_highest()
        assert popped is old
        queue.add(popped)
        assert queue.pop_highest() is old

    def test_top_n_ties_oldest_first(self):
        queue = RankedQueue(
            [note(1, 2.0, published_at=40.0), note(2, 2.0, published_at=5.0)]
        )
        assert [m.event_id for m in queue.top_n(2)] == [2, 1]

    def test_peek_does_not_remove(self):
        queue = RankedQueue([note(1, 1.0)])
        assert queue.peek_highest().event_id == 1
        assert len(queue) == 1

    def test_contains_by_id_and_notification(self):
        item = note(7, 1.0)
        queue = RankedQueue([item])
        assert item in queue
        assert EventId(7) in queue
        assert EventId(8) not in queue

    def test_iteration_in_rank_order(self):
        queue = RankedQueue([note(1, 1.0), note(2, 5.0), note(3, 3.0)])
        assert [m.event_id for m in queue] == [2, 3, 1]

    def test_get(self):
        queue = RankedQueue([note(1, 1.0)])
        assert queue.get(EventId(1)).event_id == 1
        assert queue.get(EventId(2)) is None


class TestRemoval:
    def test_remove_returns_item(self):
        queue = RankedQueue([note(1, 1.0), note(2, 2.0)])
        removed = queue.remove(EventId(2))
        assert removed.event_id == 2
        assert len(queue) == 1
        assert queue.pop_highest().event_id == 1

    def test_remove_missing_returns_none(self):
        assert RankedQueue().remove(EventId(9)) is None

    def test_lazy_deletion_skipped_on_pop(self):
        queue = RankedQueue([note(1, 5.0), note(2, 1.0)])
        queue.remove(EventId(1))
        assert queue.pop_highest().event_id == 2


class TestRankChanges:
    def test_reorder_moves_item(self):
        a, b = note(1, 1.0), note(2, 2.0)
        queue = RankedQueue([a, b])
        a.rank = 3.0
        queue.reorder(a)
        assert queue.pop_highest().event_id == 1

    def test_reorder_absent_item_is_noop(self):
        queue = RankedQueue([note(1, 1.0)])
        queue.reorder(note(9, 5.0))
        assert len(queue) == 1

    def test_stale_rank_entries_not_returned(self):
        a = note(1, 5.0)
        queue = RankedQueue([a])
        a.rank = 0.5
        queue.reorder(a)
        popped = queue.pop_highest()
        assert popped.rank == 0.5
        assert queue.pop_highest() is None

    def test_rank_mutated_without_reorder_is_a_ghost_until_compaction(self):
        """Pins a modelling defect; does not fix it.

        The device queue holds the very Notification object the proxy
        re-ranks in ``_handle_rank_change``, and the proxy re-keys only
        its own queues. After a rank change on an event the device
        already holds (a demotion whose retraction has not crossed the
        hop yet, or a within-threshold change) the device's only heap
        entry carries the old rank: ``len`` counts the member, every
        read skips it, and ``compact()`` brings it back at its new rank.
        The fix is a change to the model's outputs, so it belongs in its
        own change that regenerates ``results/`` (ablation-delay is the
        table with rank changes) and compares every table.
        """
        ghost = note(1, 2.0)
        queue = RankedQueue([ghost, note(2, 1.0), note(3, 0.5)])
        ghost.rank = 3.0  # mutated in place; queue.reorder never called
        assert len(queue) == 3
        assert ghost in queue
        assert [m.event_id for m in queue.top_n(3)] == [2, 3]
        assert queue.peek_highest().event_id == 2
        assert [m.event_id for m in queue] == [2, 3]
        queue.compact()
        assert [m.event_id for m in queue.top_n(3)] == [1, 2, 3]
        assert queue.pop_highest() is ghost


class TestTopN:
    def test_top_n_returns_highest(self):
        queue = RankedQueue([note(i, float(i)) for i in range(10)])
        assert [m.event_id for m in queue.top_n(3)] == [9, 8, 7]

    def test_top_n_larger_than_queue(self):
        queue = RankedQueue([note(1, 1.0)])
        assert len(queue.top_n(10)) == 1

    def test_top_n_zero_or_negative(self):
        queue = RankedQueue([note(1, 1.0)])
        assert queue.top_n(0) == []
        assert queue.top_n(-1) == []

    def test_top_n_pops_live_and_stale_prefix_only(self, monkeypatch):
        """Reads pop the real heap instead of copying it: with S stale
        entries on top, ``top_n(n)`` pops at most n + S entries and
        drops the S for good, so an immediate repeat pops at most n."""
        pops = []

        def heappop(heap):
            pops.append(1)
            return heapq.heappop(heap)

        monkeypatch.setattr(
            queues_module,
            "heapq",
            types.SimpleNamespace(
                heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify
            ),
        )
        queue = RankedQueue([note(i, float(i)) for i in range(100)])
        for i in range(99, 89, -1):  # S = 10 stale entries on top
            queue.remove(EventId(i))
        assert queue.stale_entries == 10
        assert [m.event_id for m in queue.top_n(5)] == [89, 88, 87, 86, 85]
        assert len(pops) <= 5 + 10
        assert queue.stale_entries == 0
        pops.clear()
        assert [m.event_id for m in queue.top_n(5)] == [89, 88, 87, 86, 85]
        assert len(pops) <= 5

    def test_top_n_skips_duplicate_entries(self):
        item = note(1, 2.0)
        queue = RankedQueue([item, note(2, 1.0)])
        queue.add(item)  # same rank: a second, identical heap entry
        assert queue.top_n(3) == [item, queue.get(EventId(2))]
        assert queue.top_n(3) == [item, queue.get(EventId(2))]

    def test_highest_ranked_across_queues(self):
        q1 = RankedQueue([note(1, 1.0), note(2, 4.0)])
        q2 = RankedQueue([note(3, 3.0)])
        q3 = RankedQueue([note(4, 5.0)])
        best = highest_ranked(3, q1, q2, q3)
        assert [m.event_id for m in best] == [4, 2, 3]

    def test_highest_ranked_ties_oldest_first_across_queues(self):
        q1 = RankedQueue([note(1, 2.0, published_at=25.0)])
        q2 = RankedQueue([note(2, 2.0, published_at=10.0)])
        best = highest_ranked(2, q1, q2)
        assert [m.event_id for m in best] == [2, 1]

    def test_highest_ranked_deduplicates(self):
        shared = note(1, 2.0)
        q1 = RankedQueue([shared])
        q2 = RankedQueue([shared])
        assert len(highest_ranked(5, q1, q2)) == 1


class TestMaintenance:
    def test_prune_expired(self):
        queue = RankedQueue(
            [note(1, 1.0, expires_at=10.0), note(2, 2.0), note(3, 3.0, expires_at=5.0)]
        )
        expired = queue.prune_expired(now=7.0)
        assert {m.event_id for m in expired} == {3}
        assert len(queue) == 2

    def test_compact_removes_stale_entries(self):
        queue = RankedQueue([note(i, float(i)) for i in range(20)])
        for i in range(15):
            queue.remove(EventId(i))
        assert queue.stale_entries == 15  # below the auto-compact threshold
        queue.compact()
        assert queue.stale_entries == 0
        assert [m.event_id for m in queue.top_n(5)] == [19, 18, 17, 16, 15]

    def test_prune_skips_entries_for_removed_members(self):
        queue = RankedQueue([note(1, 1.0, expires_at=10.0), note(2, 2.0, expires_at=12.0)])
        queue.remove(EventId(1))
        expired = queue.prune_expired(now=11.0)
        assert [m.event_id for m in expired] == []
        assert EventId(2) in queue

    def test_prune_after_rank_churn_returns_member_once(self):
        item = note(1, 1.0, expires_at=10.0)
        queue = RankedQueue([item])
        for rank in (2.0, 3.0, 4.0):  # each reorder re-keys both heaps
            item.rank = rank
            queue.reorder(item)
        expired = queue.prune_expired(now=10.0)
        assert [m.event_id for m in expired] == [1]
        assert not queue
        assert queue.prune_expired(now=20.0) == []

    def test_prune_returns_members_in_deadline_order(self):
        queue = RankedQueue(
            [note(1, 1.0, expires_at=30.0), note(2, 2.0, expires_at=10.0),
             note(3, 3.0, expires_at=20.0)]
        )
        expired = queue.prune_expired(now=30.0)
        assert [m.event_id for m in expired] == [2, 3, 1]

    def test_stale_entries_bounded_under_rank_churn(self):
        """Amortized self-compaction: stale lazy-deletion entries never
        exceed live membership plus the constant slack, no matter how
        long rank churn goes on."""
        items = [note(i, float(i), expires_at=1e9) for i in range(50)]
        queue = RankedQueue(items)
        for round_number in range(200):
            for item in items:
                item.rank = float((item.event_id * 7 + round_number) % 97)
                queue.reorder(item)
            assert queue.stale_entries <= len(queue) + 16
        assert len(queue) == 50
        # Churn must not corrupt ranked selection.
        best = queue.top_n(3)
        assert [m.rank for m in best] == sorted((m.rank for m in items), reverse=True)[:3]


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.floats(0.0, 5.0)),
        min_size=1,
        max_size=60,
        unique_by=lambda pair: pair[0],
    )
)
@settings(max_examples=60)
def test_property_pop_sequence_is_rank_sorted(items):
    queue = RankedQueue([note(i, r) for i, r in items])
    ranks = []
    while queue:
        ranks.append(queue.pop_highest().rank)
    assert ranks == sorted(ranks, reverse=True)
    assert len(ranks) == len(items)


@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.floats(0.0, 5.0), st.booleans()),
        min_size=1,
        max_size=60,
        unique_by=lambda triple: triple[0],
    )
)
@settings(max_examples=60)
def test_property_removed_items_never_pop(items):
    queue = RankedQueue([note(i, r) for i, r, _ in items])
    removed = {i for i, _, remove in items if remove}
    for event_id in removed:
        queue.remove(EventId(event_id))
    popped = set()
    while queue:
        popped.add(queue.pop_highest().event_id)
    assert popped == {i for i, _, remove in items if not remove}
