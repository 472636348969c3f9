"""Property tests: incremental ranked selection matches the sort reference.

The sorted-list ``top_n`` / ``highest_ranked`` / iteration replaced full
``sorted(..., key=_selection_key)`` calls; these properties drive random
queues through duplicate ranks, re-queues (rank churn), removals,
expirations and reads interleaved with them, and assert the incremental
answers are exactly what the sort-based reference produces.

As in the real system, an event's ``published_at`` and ``expires_at``
are fixed at first publication; a repeated "add" of a known id models a
re-queue (with a possible rank change) of the same notification object.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.message import Notification
from repro.proxy.queues import RankedQueue, _selection_key, highest_ranked
from repro.types import EventId, TopicId


#: Small value pools force rank and publication-time collisions, the
#: cases where tie-break determinism actually matters.
_ranks = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.5])
_lifetimes = st.sampled_from([None, 4.0, 8.0, 100.0])

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 15), _ranks, _lifetimes),
        st.tuples(st.just("remove"), st.integers(0, 15)),
        st.tuples(st.just("rerank"), st.integers(0, 15), _ranks),
        st.tuples(st.just("prune"), st.sampled_from([3.0, 6.0, 9.0, 20.0])),
        # Reads run interleaved with the mutations.
        st.tuples(st.just("top_n"), st.integers(0, 20)),
        st.tuples(st.just("highest_ranked"), st.integers(0, 20)),
        st.tuples(st.just("peek")),
        st.tuples(st.just("iterate"), st.integers(0, 20)),
    ),
    min_size=1,
    max_size=80,
)

#: The ops whose second field is an event id.
_ID_OPS = ("add", "remove", "rerank")


def _published_at(event_id: int) -> float:
    """Deterministic per-event publication time, colliding across ids."""
    return float(event_id % 4) * 5.0


def _apply(ops):
    """Run ops against the queue and a plain-dict reference model.

    Checks every read and prune result against the model at that point;
    returns the final (queue, model) pair.
    """
    queue = RankedQueue()
    model = {}
    ever = {}
    for op in ops:
        if op[0] == "add":
            _, raw_id, rank, lifetime = op
            event_id = EventId(raw_id)
            item = ever.get(event_id)
            if item is None:
                published_at = _published_at(raw_id)
                expires_at = None if lifetime is None else published_at + lifetime
                item = Notification(
                    event_id=event_id,
                    topic=TopicId("t"),
                    rank=rank,
                    published_at=published_at,
                    expires_at=expires_at,
                )
                ever[event_id] = item
            else:
                item.rank = rank  # re-queue of the same notification
            queue.add(item)
            model[event_id] = item
        elif op[0] == "remove":
            queue.remove(EventId(op[1]))
            model.pop(EventId(op[1]), None)
        elif op[0] == "rerank":
            item = model.get(EventId(op[1]))
            if item is not None:
                item.rank = op[2]
                queue.reorder(item)
        elif op[0] == "prune":
            _, now = op
            pruned = {m.event_id for m in queue.prune_expired(now)}
            expected = {
                event_id for event_id, m in model.items() if m.is_expired(now)
            }
            assert pruned == expected
            for event_id in expected:
                del model[event_id]
        elif op[0] == "top_n":
            assert queue.top_n(op[1]) == _reference(model, op[1])
        elif op[0] == "highest_ranked":
            # The same queue twice: each member must still count once.
            assert highest_ranked(op[1], queue, queue) == _reference(model, op[1])
        elif op[0] == "peek":
            best = _reference(model, 1)
            assert queue.peek_highest() is (best[0] if best else None)
        elif op[0] == "iterate":
            prefix = list(itertools.islice(queue, op[1]))
            assert prefix == _reference(model, op[1])
    return queue, model


def _reference(model, n):
    return sorted(model.values(), key=_selection_key)[:n]


@given(_ops, st.integers(0, 20))
@settings(max_examples=200)
def test_top_n_matches_sorted_reference(ops, n):
    queue, model = _apply(ops)
    assert queue.top_n(n) == _reference(model, n)


@given(_ops)
@settings(max_examples=150)
def test_iteration_matches_sorted_reference(ops):
    queue, model = _apply(ops)
    assert list(queue) == _reference(model, len(model))


@given(_ops, _ops, st.integers(0, 20))
@settings(max_examples=150)
def test_highest_ranked_union_matches_sorted_reference(ops_a, ops_b, n):
    # Disjoint id spaces: as at the proxy, one event object lives in at
    # most one queue (same-object duplicates are covered elsewhere), but
    # ranks and publication times still collide across the queues.
    ops_b = [
        (op[0], op[1] + 16, *op[2:]) if op[0] in _ID_OPS else op for op in ops_b
    ]
    queue_a, model_a = _apply(ops_a)
    queue_b, model_b = _apply(ops_b)
    union = {**model_a, **model_b}
    expected = sorted(union.values(), key=_selection_key)[:n]
    got = highest_ranked(n, queue_a, queue_b)
    assert got == expected


@given(_ops)
@settings(max_examples=150)
def test_pop_sequence_matches_sorted_reference(ops):
    queue, model = _apply(ops)
    expected = _reference(model, len(model))
    popped = []
    while queue:
        popped.append(queue.pop_highest())
    assert popped == expected
    assert queue.pop_highest() is None


_prune_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 15), _ranks, _lifetimes),
        st.tuples(st.just("remove"), st.integers(0, 15)),
        st.tuples(st.just("rerank"), st.integers(0, 15), _ranks),
        st.tuples(st.just("pop")),
        st.tuples(st.just("prune"), st.floats(0.0, 120.0)),
    ),
    min_size=1,
    max_size=80,
)


@given(_prune_ops)
@settings(max_examples=200)
def test_prune_expired_matches_brute_force(ops):
    """``prune_expired`` pops the due prefix of its sorted expiry list;
    a scan of every member finds the same notifications, in the same
    ``(expires_at, event_id)`` order, after any mix of adds (a re-add
    may change the lifetime), removals, reorders and pops."""
    queue = RankedQueue()
    model = {}
    for op in ops:
        if op[0] == "add":
            _, raw_id, rank, lifetime = op
            published_at = _published_at(raw_id)
            item = Notification(
                event_id=EventId(raw_id),
                topic=TopicId("t"),
                rank=rank,
                published_at=published_at,
                expires_at=None if lifetime is None else published_at + lifetime,
            )
            queue.add(item)
            model[item.event_id] = item
        elif op[0] == "remove":
            assert queue.remove(EventId(op[1])) is model.pop(EventId(op[1]), None)
        elif op[0] == "rerank":
            item = model.get(EventId(op[1]))
            if item is not None:
                item.rank = op[2]
                queue.reorder(item)
        elif op[0] == "pop":
            best = _reference(model, 1)
            assert queue.pop_highest() is (best[0] if best else None)
            if best:
                del model[best[0].event_id]
        else:
            now = op[1]
            due = sorted(
                (m for m in model.values() if m.is_expired(now)),
                key=lambda m: (m.expires_at, m.event_id),
            )
            pruned = queue.prune_expired(now)
            assert [id(m) for m in pruned] == [id(m) for m in due]
            for item in due:
                del model[item.event_id]
        assert len(queue) == len(model)
    assert list(queue) == _reference(model, len(model))
