"""Micro-benchmarks for the simulation substrate.

These bound the cost of the hot paths a year-long run exercises tens of
thousands of times: engine scheduling, ranked-queue churn, trace
generation, and a complete paired scenario run.
"""

import pytest

from repro.broker.message import Notification
from repro.experiments.runner import run_paired
from repro.proxy.policies import PolicyConfig
from repro.proxy.queues import RankedQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.types import EventId, TopicId
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace


@pytest.mark.benchmark(group="micro")
def test_bench_engine_schedule_and_run(benchmark):
    def run_engine():
        sim = Simulator()
        rng = RandomSource(1)
        for _ in range(10_000):
            sim.schedule(rng.uniform(0.0, 1000.0), lambda: None)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_engine)
    assert processed == 10_000


@pytest.mark.benchmark(group="micro")
def test_bench_ranked_queue_churn(benchmark):
    rng = RandomSource(2)
    items = [
        Notification(
            event_id=EventId(i),
            topic=TopicId("t"),
            rank=rng.uniform(0.0, 5.0),
            published_at=0.0,
        )
        for i in range(5_000)
    ]

    def churn():
        queue = RankedQueue()
        for item in items:
            queue.add(item)
        popped = 0
        while queue:
            queue.top_n(8)
            for _ in range(8):
                if queue.pop_highest() is None:
                    break
                popped += 1
        return popped

    assert benchmark(churn) == 5_000


@pytest.mark.benchmark(group="micro")
def test_bench_read_path_m10k(benchmark):
    """The READ hot path at M=10k queued notifications.

    One READ costs a ranked selection (``top_n``) plus an expiry prune
    over each queue; a year-long figure run performs this hundreds of
    thousands of times with queues this deep when the user reads rarely.
    No notification expires inside the measured window, so the work is
    idempotent and every benchmark round sees the same M.
    """
    rng = RandomSource(5)
    queue = RankedQueue(
        Notification(
            event_id=EventId(i),
            topic=TopicId("t"),
            rank=rng.uniform(0.0, 5.0),
            published_at=rng.uniform(0.0, 1000.0),
            expires_at=1_000_000.0 + rng.uniform(0.0, 1000.0),
        )
        for i in range(10_000)
    )

    def read_path():
        total = 0
        for _ in range(20):
            total += len(queue.top_n(8))
            queue.prune_expired(now=2_000.0)
        return total

    assert benchmark(read_path) == 160


#: Shared scenario for the trace-generation benchmarks, so the
#: vectorized/scalar pair measures the same workload.
_TRACE_BENCH_CONFIG = ScenarioConfig(
    duration=90 * DAY,
    arrivals=ArrivalConfig(events_per_day=32.0, expiring_fraction=1.0),
    reads=ReadConfig(reads_per_day=4.0),
    outages=OutageConfig(downtime_fraction=0.5, outages_per_day=4.0),
)


@pytest.mark.benchmark(group="micro")
def test_bench_trace_generation(benchmark):
    trace = benchmark(build_trace, _TRACE_BENCH_CONFIG, 3)
    assert len(trace.arrivals) > 2_000


@pytest.mark.benchmark(group="micro")
def test_bench_trace_generation_scalar(benchmark):
    """The scalar reference generators, kept benchmarked so the
    trajectory records what the columnar pipeline buys. Same four
    generators and substreams as :func:`build_trace`, minus validation."""
    from repro.workload.arrivals import generate_arrival_columns
    from repro.workload.outages import generate_outage_columns
    from repro.workload.ranks import generate_rank_change_columns
    from repro.workload.reads import generate_read_columns

    config = _TRACE_BENCH_CONFIG
    duration = config.duration

    def build_scalar():
        rng = RandomSource(3)
        arrivals = generate_arrival_columns(
            config.arrivals, duration, rng.spawn("arrivals"), method="scalar"
        )
        generate_read_columns(
            config.reads, duration, rng.spawn("reads"), method="scalar"
        )
        generate_outage_columns(
            config.outages, duration, rng.spawn("outages"), method="scalar"
        )
        generate_rank_change_columns(
            config.rank_changes, arrivals, duration, rng.spawn("rank-changes"),
            method="scalar",
        )
        return arrivals

    arrivals = benchmark(build_scalar)
    assert arrivals.times.size > 2_000


@pytest.mark.benchmark(group="micro")
def test_bench_paired_run(benchmark):
    config = ScenarioConfig(
        duration=30 * DAY,
        arrivals=ArrivalConfig(events_per_day=32.0),
        reads=ReadConfig(reads_per_day=2.0, read_count=8),
        outages=OutageConfig(downtime_fraction=0.5, outages_per_day=4.0),
    )
    trace = build_trace(config, seed=4)
    result = benchmark.pedantic(
        run_paired, args=(trace, PolicyConfig.unified()), rounds=3, iterations=1
    )
    assert result.metrics.waste < 0.1
