"""Property tests for pre-sorted stream replay.

The engine's documented contract: ``add_batch_stream(times, pump)`` is
observationally identical to calling ``schedule_at`` for every item in
program order — same firing order (including FIFO ties against dynamic
timers and other streams), same clock trajectory. The batch pump's
bit-identity with the scalar oracle rests on this, so it is checked as
a property over arbitrary interleavings, with streams drained by the
engine tests' reference pump.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from tests.sim.test_engine import _reference_pump

# A time grid coarse enough to make same-timestamp collisions common:
# ties are exactly where batched replay could diverge from FIFO order.
times = st.integers(min_value=0, max_value=8).map(float)

# One program: a sequence of scheduling ops performed in order, each
# either a dynamic timer (single time) or a whole pre-sorted stream.
dynamic_op = st.tuples(st.just("dynamic"), times)
stream_op = st.tuples(
    st.just("stream"),
    st.lists(times, min_size=0, max_size=6).map(sorted),
)
programs = st.lists(st.one_of(dynamic_op, stream_op), min_size=1, max_size=12)


def _load(program, use_streams):
    """Schedule ``program`` on a fresh simulator; returns it and the
    list its events append ``(time, label)`` to as they fire."""
    sim = Simulator()
    fired = []
    label = 0
    for kind, payload in program:
        if kind == "dynamic":
            sim.schedule_at(payload, fired.append, (payload, label))
            label += 1
        elif use_streams:
            labels = list(range(label, label + len(payload)))
            sim.add_batch_stream(
                payload,
                _reference_pump(
                    sim,
                    payload,
                    lambda i, p=payload, ls=labels: fired.append((p[i], ls[i])),
                ),
            )
            label += len(payload)
        else:
            for time in payload:
                sim.schedule_at(time, fired.append, (time, label))
                label += 1
    return sim, fired


def _execute(program, use_streams):
    sim, fired = _load(program, use_streams)
    sim.run()
    return fired, sim.now, sim.events_processed


@settings(max_examples=200)
@given(programs)
def test_stream_replay_matches_upfront_scheduling(program):
    streamed = _execute(program, use_streams=True)
    scheduled = _execute(program, use_streams=False)
    assert streamed == scheduled


@settings(max_examples=100)
@given(programs)
def test_stream_replay_fires_in_nondecreasing_time_order(program):
    fired, _now, processed = _execute(program, use_streams=True)
    fire_times = [time for time, _label in fired]
    assert fire_times == sorted(fire_times)
    assert processed == len(fired)


@settings(max_examples=100)
@given(programs, st.floats(min_value=0.0, max_value=8.0))
def test_stream_replay_matches_across_run_until_split(program, split):
    scheduled, fired_scheduled = _load(program, use_streams=False)
    streamed, fired_streamed = _load(program, use_streams=True)
    scheduled.run()
    streamed.run(until=split)
    streamed.run()
    assert fired_streamed == fired_scheduled
    assert streamed.events_processed == scheduled.events_processed
    assert streamed.now == max(scheduled.now, split)
