"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_zero_delay_fires_after_current_event(self, sim):
        fired = []

        def outer():
            sim.schedule(0.0, fired.append, "inner")
            fired.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]

    def test_events_scheduled_during_run_are_processed(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert fired == [1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_during_run(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_rejects_non_finite_delay(self, sim, bad):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_at_rejects_non_finite_time(self, sim, bad):
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)

    def test_rejected_event_leaves_queue_untouched(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim._heap == []
        assert sim._seq_next == 0


class TestStreams:
    """The batch stream's scheduling contract on ``(time, callback,
    args)`` records replayed through :func:`_reference_pump`: a stream
    orders exactly like ``schedule_at`` for every record, in order, at
    the point it is added."""

    def test_stream_fires_in_order(self, sim):
        fired = []
        count = _add_records(
            sim, [(1.0, fired.append, ("a",)), (2.0, fired.append, ("b",))]
        )
        assert count == 2
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 2.0

    def test_empty_stream_is_noop(self, sim):
        assert _add_records(sim, []) == 0
        assert sim._heap == []

    def test_stream_merges_with_dynamic_events(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "dyn")
        _add_records(
            sim, [(1.0, fired.append, ("s1",)), (2.0, fired.append, ("s2",))]
        )
        sim.run()
        assert fired == ["s1", "dyn", "s2"]

    def test_stream_ties_resolve_in_schedule_order(self, sim):
        # Events before the stream beat same-time stream items; events
        # after lose — exactly as if the stream were per-item schedule_at.
        fired = []
        sim.schedule(1.0, fired.append, "before")
        _add_records(sim, [(1.0, fired.append, ("stream",))])
        sim.schedule(1.0, fired.append, "after")
        sim.run()
        assert fired == ["before", "stream", "after"]

    def test_same_time_stream_items_fire_fifo(self, sim):
        fired = []
        _add_records(sim, [(1.0, fired.append, (label,)) for label in "abcde"])
        sim.run()
        assert fired == list("abcde")

    def test_two_streams_tie_in_registration_order(self, sim):
        fired = []
        _add_records(
            sim, [(1.0, fired.append, ("first",)), (2.0, fired.append, ("x",))]
        )
        _add_records(sim, [(1.0, fired.append, ("second",))])
        sim.run()
        assert fired == ["first", "second", "x"]

    def test_callback_scheduled_mid_stream_interleaves(self, sim):
        # A dynamic timer created while a stream replays ties *after*
        # pending stream items (its seq is allocated later).
        fired = []

        def arm():
            fired.append("arm")
            sim.schedule(1.0, fired.append, "timer")

        _add_records(
            sim,
            [(1.0, arm, ()), (2.0, fired.append, ("s2",)), (3.0, fired.append, ("s3",))],
        )
        sim.run()
        assert fired == ["arm", "s2", "timer", "s3"]

    def test_stream_accepts_generators(self, sim):
        fired = []
        times = [1.0, 2.0]
        sim.add_batch_stream(
            (t for t in times),
            _reference_pump(sim, times, lambda i: fired.append(times[i])),
        )
        sim.run()
        assert fired == [1.0, 2.0]

    def test_stream_first_item_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            _add_records(sim, [(0.5, lambda: None, ())])

    def test_stream_first_item_non_finite_rejected(self, sim):
        with pytest.raises(SimulationError):
            _add_records(sim, [(float("nan"), lambda: None, ())])

    def test_unsorted_stream_detected_lazily(self, sim):
        fired = []
        _add_records(
            sim,
            [(2.0, fired.append, ("a",)), (1.0, fired.append, ("late",))],
            one_per_call=True,
        )
        with pytest.raises(SimulationError, match="pre-sorted"):
            sim.run()
        assert fired == ["a"]

    def test_non_finite_mid_stream_detected_lazily(self, sim):
        fired = []
        _add_records(
            sim,
            [(1.0, fired.append, ("a",)), (float("inf"), fired.append, ("b",))],
            one_per_call=True,
        )
        with pytest.raises(SimulationError, match="non-finite"):
            sim.run()
        assert fired == ["a"]

    def test_run_until_pauses_and_resumes_mid_stream(self, sim):
        fired = []
        _add_records(sim, [(float(i), fired.append, (i,)) for i in range(1, 6)])
        sim.run(until=2.5)
        assert fired == [1, 2]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1, 2, 3, 4, 5]

    def test_events_processed_includes_stream_items(self, sim):
        _add_records(sim, [(1.0, lambda: None, ()), (2.0, lambda: None, ())])
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_stream_equivalent_to_schedule_at(self):
        # The documented contract: a batch stream == schedule_at per item
        # in program order, for any interleaving with dynamic timers.
        items = [(1.0, "s1"), (1.0, "s2"), (2.0, "s3"), (3.0, "s4")]

        def build(use_stream):
            sim = Simulator()
            fired = []
            sim.schedule(1.0, fired.append, "pre")
            if use_stream:
                _add_records(sim, [(t, fired.append, (v,)) for t, v in items])
            else:
                for t, v in items:
                    sim.schedule_at(t, fired.append, v)
            sim.schedule(2.0, fired.append, "post")
            sim.run()
            return fired

        assert build(True) == build(False)


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_can_resume(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_past_rejected(self, sim):
        sim.schedule(4.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_until_exact_event_time_includes_event(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "x")
        sim.run(until=3.0)
        assert fired == ["x"]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestCounters:
    def test_events_processed_counts_only_fired(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e3), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(items):
    sim = Simulator()
    fired = []
    for index, (delay, cancel) in enumerate(items):
        handle = sim.schedule(delay, fired.append, index)
        if cancel:
            handle.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected


def _reference_pump(sim, times, on_item):
    """A minimal conforming batch pump: the engine-side contract in
    miniature (cap refresh after any item that schedules, ``until``
    enforcement, clock write before side effects)."""

    def pump(pos, base, cap_time, cap_seq, until):
        consumed = 0
        seq_mark = sim._seq_next
        size = len(times)
        i = pos
        while i < size:
            time = times[i]
            if time > until or (time, base + i) >= (cap_time, cap_seq):
                break
            sim._now = time
            on_item(i)
            if sim._seq_next != seq_mark:
                if sim._heap:
                    cap_time, cap_seq, _event = sim._heap[0]
                seq_mark = sim._seq_next
            consumed += 1
            i += 1
        return consumed

    return pump


def _add_records(sim, records, one_per_call=False):
    """Add ``(time, callback, args)`` records as one batch stream.

    The stream's pump is :func:`_reference_pump`, or, with
    ``one_per_call``, a pump that fires one record per call, so the
    engine re-checks every successor time as the cursor re-arms.
    """
    records = list(records)
    times = [time for time, _callback, _args in records]

    def on_item(i):
        _time, callback, args = records[i]
        callback(*args)

    def one_item_pump(pos, base, cap_time, cap_seq, until):
        sim._now = times[pos]
        on_item(pos)
        return 1

    pump = one_item_pump if one_per_call else _reference_pump(sim, times, on_item)
    return sim.add_batch_stream(times, pump)


class TestBatchStreams:
    def test_items_fire_in_order_interleaved_with_timers(self, sim):
        fired = []
        times = [1.0, 2.0, 3.0, 4.0]
        sim.schedule(1.5, fired.append, "t1")
        sim.schedule(3.5, fired.append, "t2")
        sim.add_batch_stream(
            times, _reference_pump(sim, times, lambda i: fired.append(i))
        )
        sim.run()
        assert fired == [0, "t1", 1, 2, "t2", 3]
        assert sim.now == 4.0

    def test_tie_break_follows_registration_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "before")
        times = [2.0]
        sim.add_batch_stream(
            times, _reference_pump(sim, times, lambda i: fired.append("batch"))
        )
        sim.schedule(2.0, fired.append, "after")
        sim.run()
        assert fired == ["before", "batch", "after"]

    def test_pump_scheduled_timer_preempts_rest_of_batch(self, sim):
        fired = []
        times = [1.0, 2.0, 3.0]

        def on_item(i):
            fired.append(i)
            if i == 0:
                sim.schedule(0.5, fired.append, "timer")

        sim.add_batch_stream(times, _reference_pump(sim, times, on_item))
        sim.run()
        assert fired == [0, "timer", 1, 2]

    def test_run_until_pauses_and_resumes_mid_batch(self, sim):
        fired = []
        times = [1.0, 2.0, 3.0]
        sim.add_batch_stream(
            times, _reference_pump(sim, times, lambda i: fired.append(i))
        )
        sim.run(until=1.5)
        assert fired == [0]
        assert sim.now == 1.5
        sim.run()
        assert fired == [0, 1, 2]

    def test_events_processed_counts_batch_items(self, sim):
        times = [1.0, 2.0, 3.0]
        sim.add_batch_stream(times, _reference_pump(sim, times, lambda i: None))
        sim.schedule(2.5, lambda: None)
        # One cursor stands for the whole stream beside the timer.
        assert len(sim._heap) == 2
        sim.run()
        assert sim.events_processed == 4
        assert sim._heap == []

    def test_float64_array_is_kept_and_keys_stay_floats(self, sim):
        """An array stream is kept, not listed; the cursor's heap keys
        (at registration and on every re-arm) and the caps a pump is
        handed are Python floats, not numpy scalars."""
        times = np.array([1.0, 2.0, 3.0])
        other = np.array([1.5, 2.5])
        seen = []

        def one_item_pump(column):
            def pump(pos, base, cap_time, cap_seq, until):
                seen.append(cap_time)
                seen.extend(key for key, _seq, _event in sim._heap)
                sim._now = float(column[pos])
                return 1

            return pump

        sim.add_batch_stream(times, one_item_pump(times))
        sim.add_batch_stream(other, one_item_pump(other))
        first, second = sorted(
            (entry[2].stream for entry in sim._heap), key=lambda s: s.base
        )
        assert first.times is times and second.times is other
        seen.extend(key for key, _seq, _event in sim._heap)
        sim.run(until=2.0)
        seen.append(sim.now)
        sim.run()
        seen.append(sim.now)
        assert sim.events_processed == 5
        assert len(seen) == 2 + 5 + 4 + 1 + 1
        assert all(type(value) is float for value in seen), seen

    def test_empty_batch_stream_is_a_no_op(self, sim):
        assert sim.add_batch_stream([], lambda *a: 1) == 0
        sim.run()
        assert sim.events_processed == 0

    def test_first_time_must_be_finite_and_not_past(self, sim):
        with pytest.raises(SimulationError):
            sim.add_batch_stream([float("nan")], lambda *a: 1)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.add_batch_stream([0.5], lambda *a: 1)

    def test_zero_progress_pump_rejected(self, sim):
        sim.add_batch_stream([1.0, 2.0], lambda *a: 0)
        with pytest.raises(SimulationError, match="no progress"):
            sim.run()

    def test_unsorted_stream_detected_at_rearm(self, sim):
        records = [(2.0, lambda: None, ()), (1.0, lambda: None, ())]
        _add_records(sim, records, one_per_call=True)
        with pytest.raises(SimulationError, match="pre-sorted"):
            sim.run()

    def test_non_finite_mid_stream_detected_at_rearm(self, sim):
        records = [(1.0, lambda: None, ()), (float("inf"), lambda: None, ())]
        _add_records(sim, records, one_per_call=True)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.run()

    def test_exhausted_stream_frees_without_cycle_collection(self, sim):
        import gc
        import weakref

        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        times = [1.0]

        def pump(pos, base, cap_time, cap_seq, until):
            sim._now = times[pos]
            assert payload is not None  # the closure keeps it alive
            return 1

        gc.disable()
        try:
            sim.add_batch_stream(times, pump)
            sim.run()
            del pump, payload
            # The engine broke the cursor <-> stream cycle on
            # exhaustion, so dropping the last direct reference frees
            # the closure by refcounting alone — no collector pass.
            assert ref() is None
        finally:
            gc.enable()
