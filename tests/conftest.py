"""Shared fixtures for the test suite.

Tests run scenarios at much shorter virtual durations than the paper's
one-year experiments; the dynamics under test (overflow, expiration,
outage interplay) all manifest within days to weeks.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(seed=1234)


def make_config(
    days: float = 30.0,
    events_per_day: float = 32.0,
    reads_per_day: float = 2.0,
    read_count: int = 8,
    outage_fraction: float = 0.0,
    expiring_fraction: float = 0.0,
    expiration_mean: float = DAY,
    threshold: float = 0.0,
    seed: int = 0,
) -> ScenarioConfig:
    """Compact scenario factory used across test modules."""
    return ScenarioConfig(
        duration=days * DAY,
        seed=seed,
        arrivals=ArrivalConfig(
            events_per_day=events_per_day,
            expiring_fraction=expiring_fraction,
            expiration_mean=expiration_mean,
        ),
        reads=ReadConfig(reads_per_day=reads_per_day, read_count=read_count),
        outages=OutageConfig(
            downtime_fraction=outage_fraction,
            outages_per_day=4.0,
            duration_sigma=0.5,
        ),
        threshold=threshold,
    )


def calls_per_event(monkeypatch, action: Callable[[], object]) -> float:
    """Python and C calls per fired event inside ``Simulator.run``.

    Runs ``action()`` with every ``Simulator.run`` it makes counting
    ``call`` / ``c_call`` events via ``sys.setprofile``. Host time cannot
    resolve per-event cost reliably in CI; this count is deterministic
    for a given interpreter.
    """
    counted = {"calls": 0, "events": 0}
    run = Simulator.run

    def counting_run(self, until=None):
        calls = 0

        def profile(_frame, event, _arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        before = self.events_processed
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run(self, until)
        finally:
            sys.setprofile(previous)
        counted["calls"] += calls
        counted["events"] += self.events_processed - before

    monkeypatch.setattr(Simulator, "run", counting_run)
    try:
        action()
    finally:
        monkeypatch.setattr(Simulator, "run", run)
    return counted["calls"] / counted["events"]


@pytest.fixture
def overflow_trace():
    """A 30-day overflow trace (32 events/day vs 16 read/day), no outages."""
    return build_trace(make_config(days=30.0), seed=7)


@pytest.fixture
def outage_trace():
    """A 30-day overflow trace with 70 % downtime."""
    return build_trace(make_config(days=30.0, outage_fraction=0.7), seed=7)


@contextmanager
def expiring_outcomes() -> Iterator[Counter]:
    """Count, on the batch pump's rows, what became of expiring arrivals.

    Inside the block every shard's ``ShardBatchDispatcher`` counts the
    expiring arrivals a row forwarded at once, those that expired in
    the proxy's holding queue, and those that expired on the device —
    the non-vacuity check of the tests that pin expiring shapes.
    """
    from repro.fleet.batch import ShardBatchDispatcher

    seen: Counter = Counter()
    arrive = ShardBatchDispatcher._arrive_expiring
    timeout = ShardBatchDispatcher._expiration_timeout
    expire = ShardBatchDispatcher._expire

    def counting_arrive(dispatcher, d, entry):
        before = dispatcher.cols.forwarded[d]
        arrive(dispatcher, d, entry)
        seen["forwarded at once"] += dispatcher.cols.forwarded[d] > before

    def counting_timeout(dispatcher, d, entry):
        seen["died in holding"] += entry in (dispatcher.cols.proxy_holding[d] or ())
        timeout(dispatcher, d, entry)

    def counting_expire(dispatcher, d, entry):
        seen["expired on the device"] += 1
        expire(dispatcher, d, entry)

    ShardBatchDispatcher._arrive_expiring = counting_arrive
    ShardBatchDispatcher._expiration_timeout = counting_timeout
    ShardBatchDispatcher._expire = counting_expire
    try:
        yield seen
    finally:
        ShardBatchDispatcher._arrive_expiring = arrive
        ShardBatchDispatcher._expiration_timeout = timeout
        ShardBatchDispatcher._expire = expire


@pytest.fixture
def materialize_only_at_wiring(monkeypatch):
    """Fail any fleet shard that materializes a binding while its
    simulator runs: a binding's runtime is decided at wiring."""
    from repro.fleet.runner import ShardWiring

    materialize = ShardWiring.materialize

    def guarded(wiring, index):
        assert not wiring.sim._running, f"binding {index} materialized mid-run"
        materialize(wiring, index)

    monkeypatch.setattr(ShardWiring, "materialize", guarded)
