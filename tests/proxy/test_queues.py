"""Unit tests for the ranked queues."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.message import Notification
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

    def test_member_stays_at_the_key_it_was_added_with(self):
        """A rank mutated in place moves a member only through
        ``reorder``: until then every read finds it once, at the key it
        was added with (the proxy re-keys right after each mutation, and
        the device never sees one)."""
        moved = note(1, 2.0)
        queue = RankedQueue([moved, note(2, 1.0), note(3, 0.5)])
        moved.rank = 0.1  # mutated in place; queue.reorder not called yet
        assert [m.event_id for m in queue.top_n(3)] == [1, 2, 3]
        assert [m.event_id for m in queue] == [1, 2, 3]
        assert queue.peek_highest() is moved
        queue.reorder(moved)
        assert [m.event_id for m in queue.top_n(3)] == [2, 3, 1]
        assert queue.pop_highest().event_id == 2


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

    def test_top_n_skips_duplicate_entries(self):
        item = note(1, 2.0)
        queue = RankedQueue([item, note(2, 1.0)])
        queue.add(item)  # same rank: re-adding a member re-keys it
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

    def test_prune_skips_entries_for_removed_members(self):
        queue = RankedQueue([note(1, 1.0, expires_at=10.0), note(2, 2.0, expires_at=12.0)])
        queue.remove(EventId(1))
        expired = queue.prune_expired(now=11.0)
        assert [m.event_id for m in expired] == []
        assert EventId(2) in queue

    def test_prune_after_rank_churn_returns_member_once(self):
        item = note(1, 1.0, expires_at=10.0)
        queue = RankedQueue([item])
        for rank in (2.0, 3.0, 4.0):  # each reorder re-keys the member
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
