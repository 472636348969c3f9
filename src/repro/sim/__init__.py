"""Deterministic discrete-event simulation substrate.

This package provides the engine the paper's evaluation is built on:

* :class:`~repro.sim.engine.Simulator` — a heap-scheduled event loop with
  a floating-point clock and cancellable timers (the paper's
  ``schedule()`` primitive).
* :class:`~repro.sim.rng.RandomSource` — a seeded random source with the
  distributions the paper draws from (Poisson, normal, exponential,
  uniform, lognormal) and named substreams so that paired scenario runs
  consume identical randomness.
* :mod:`~repro.sim.trace` — immutable pre-generated traces (arrivals,
  user reads, network outages) that let two forwarding policies be
  compared on *exactly* the same set of discrete events, which is how
  the paper computes loss.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import RandomSource
from repro.sim.trace import (
    ArrivalRecord,
    OutageRecord,
    RankChangeRecord,
    ReadRecord,
    Trace,
)

__all__ = [
    "ArrivalRecord",
    "EventHandle",
    "OutageRecord",
    "RandomSource",
    "RankChangeRecord",
    "ReadRecord",
    "Simulator",
    "Trace",
]
