"""Parallel experiment execution.

Every figure of the paper is a grid of independent ``(x, seed)`` paired
runs — each builds its own trace, simulator, and statistics, so the grid
is embarrassingly parallel. :func:`parallel_map` fans such grids (and
the fleet layer's shard tasks) across a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the output
**deterministic**: results are merged in submission order, so a parallel
run is bit-for-bit identical to the serial one (same floats, same
ordering), only faster.

Design constraints, and how they are met:

* **Picklable work items.** Callers pass a module-level function and
  tuples of frozen dataclasses / plain values; nothing else crosses the
  process boundary. A figure cell carries its fault spec in its config;
  a fleet shard task names the shared-memory segment holding its
  columns and carries its fault spec. Either way a worker needs no
  state beyond its task, save the observability setup its initializer
  installs.
* **Deterministic merge.** Futures are submitted in grid order and
  harvested in that same order; stragglers simply make the harvest
  block, never reorder it.
* **Shared per-scenario work.** The paper runs "two scenarios for each
  randomized set of discrete events", but a policy sweep evaluates many
  policies against one scenario. Figure measure functions build traces
  through :func:`repro.workload.scenario.build_trace_cached` and run
  baselines through :func:`repro.experiments.runner.run_baseline`, both
  per-process LRUs, so cells that land on one worker share one trace
  and one baseline run per ``(config, seed)``.
* **Chunked submission.** Many small tasks are shipped per future
  (``chunksize``), amortizing pickling/IPC overhead and keeping
  contiguous grid cells on the same worker — which is exactly what the
  per-process trace and baseline LRUs want to see.
* **Same-process fallback.** ``jobs=1`` (the default everywhere) runs
  the exact same worker function inline, with no executor, no pickling,
  and streaming results.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.faults import FaultSpec
from repro.proxy.policies import PolicyConfig
from repro.sim import trace_shm

#: Upper bound on automatic chunk sizes: keeps the in-order harvest
#: streaming results at a reasonable cadence even on huge grids.
MAX_AUTO_CHUNK: int = 32


def resolve_jobs(jobs: Optional[int], tasks: int) -> int:
    """Number of worker processes to actually use.

    ``None`` or a non-positive value means "one per CPU"; the result is
    clamped to the task count so small grids never spawn idle workers.
    """
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, tasks))


def resolve_chunksize(chunksize: Optional[int], tasks: int, workers: int) -> int:
    """Tasks shipped per future. ``None`` picks an automatic size.

    The automatic size aims at ~4 chunks per worker (enough slack for
    stragglers to rebalance) and never exceeds :data:`MAX_AUTO_CHUNK`.
    """
    if chunksize is not None:
        return max(1, chunksize)
    if workers <= 1:
        return 1
    return max(1, min(MAX_AUTO_CHUNK, -(-tasks // (workers * 4))))


def _worker_init(obs_config: Optional["obs.ObsConfig"] = None) -> None:
    """Process-pool initializer: inherit the parent's observability setup.

    Worker processes start with fresh module state. The observability
    configuration rides along because an ``--audit`` run must audit
    inside every worker, not just the parent (each worker gets its own
    ring buffer and transition counter; an invariant violation raised
    in a worker propagates through the future exactly like any other
    error). Nothing else rides along: a task carries everything it
    runs, its fault spec included.
    """
    obs.configure(obs_config)


def _run_chunk(fn: Callable[..., Any], chunk: Sequence[Tuple[Any, ...]]) -> List[Any]:
    """Worker: evaluate a contiguous slice of the task grid."""
    return [fn(*task) for task in chunk]


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``fn(*task)`` for every task, optionally across processes.

    Results come back as a list in task order regardless of completion
    order — the deterministic merge the figure pipeline depends on.

    When ``jobs`` exceeds 1, ``fn`` must be a module-level function and
    every task element picklable. ``chunksize`` tasks ship per future
    (``None`` = automatic, see :func:`resolve_chunksize`): fewer, fatter
    futures amortize pickling/IPC, and contiguous cells landing on one
    worker keeps its per-process trace/baseline caches warm.
    """
    tasks = [task if isinstance(task, tuple) else (task,) for task in tasks]
    effective = resolve_jobs(jobs, len(tasks))
    if effective <= 1:
        return [fn(*task) for task in tasks]
    chunk = resolve_chunksize(chunksize, len(tasks), effective)
    chunks = [tasks[start : start + chunk] for start in range(0, len(tasks), chunk)]
    with ProcessPoolExecutor(
        max_workers=effective,
        initializer=_worker_init,
        initargs=(obs.active_config(),),
    ) as pool:
        futures = [pool.submit(_run_chunk, fn, part) for part in chunks]
        return [value for future in futures for value in future.result()]


class FleetWorkloadCache:
    """Small LRU of built fleet workloads, keyed by scenario config.

    The sweep layer never needs this — its scenario-major cell order
    visits each ``(scenario, seed)`` group exactly once. The tune layer
    (:mod:`repro.fleet.tune`) does: every search round re-evaluates
    candidates against the *same* seeded scenarios, and the vectorized
    workload build is the only per-evaluation cost that does not depend
    on the policy. One cache entry per campaign seed makes repeat
    visits free; ``tests/experiments/test_parallel.py`` counts the
    builds.

    ``FleetScenarioConfig`` is frozen and hashable, so the config is
    its own key; entries evict least-recently-used beyond ``maxsize``.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.builds = 0
        self.hits = 0

    def get(self, config):
        """The built workload for ``config``, building on first use."""
        from repro.fleet.workload import build_fleet_workload

        entry = self._entries.get(config)
        if entry is not None:
            self._entries.move_to_end(config)
            self.hits += 1
            return entry
        workload = build_fleet_workload(config)
        self.builds += 1
        self._entries[config] = workload
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return workload


def run_fleet_policy_batch(
    workload,
    policies: Sequence[PolicyConfig],
    shards: int = 1,
    jobs: Optional[int] = 1,
    fault_spec: Optional[FaultSpec] = None,
):
    """Execute several policy variants over ONE fleet workload's shards.

    A sweep evaluates many policies against one ``(scenario, seed)``
    cell, and the expensive shared work — the vectorized workload build
    (done by the caller, once) and the shard-column shared-memory
    publication (done here, once) — must not be repeated per policy.
    Returns one folded :class:`~repro.metrics.streaming.FleetAccumulator`
    per policy, in ``policies`` order.

    The workload (a :class:`repro.fleet.workload.FleetWorkload`) is
    sliced into contiguous device ranges. Inline (``jobs<=1``) each
    slice runs sequentially on its own simulator; with workers, each
    slice's columns are published to shared memory
    (:mod:`repro.sim.trace_shm`) exactly once and every policy's shard
    task carries its segment's name and attaches it zero-copy. Per
    policy, shard accumulators merge in shard order, so the folded
    results are deterministic; device outcomes are independent, so each
    is also invariant to ``(shards, jobs)`` up to documented float
    reassociation.

    ``fault_spec`` (None = fault-free) rides in every shard task, so a
    worker runs exactly what the caller asked for. Every shard runs on
    the batch pump.

    Fleet imports stay inside the function: :mod:`repro.fleet.runner`
    imports this module at import time, so importing it here at module
    level would be circular.
    """
    from repro.fleet.runner import _execute_shard, _execute_shard_from_shm
    from repro.fleet.workload import shard_bounds
    from repro.metrics.streaming import FleetAccumulator

    policies = list(policies)
    if not policies:
        return []
    bounds = shard_bounds(workload.devices, shards)
    effective = resolve_jobs(jobs, len(bounds) * len(policies))
    if effective <= 1:
        totals = []
        for policy in policies:
            total = FleetAccumulator()
            for lo, hi in bounds:
                piece = workload if (lo, hi) == (0, workload.devices) else (
                    workload.shard(lo, hi)
                )
                total.merge(_execute_shard(piece, policy, fault_spec))
            totals.append(total)
        return totals

    shm_set = trace_shm.ShmTraceSet()
    try:
        names = [
            shm_set.publish(f"fleet-shard-{s}", workload.shard(lo, hi).to_trace())
            for s, (lo, hi) in enumerate(bounds)
        ]
        tasks = [
            (name, workload.config, policy, fault_spec)
            # Policy-major: each policy's shards are contiguous, so the
            # in-order harvest below folds them without buffering.
            for policy in policies
            for name in names
        ]
        results = parallel_map(
            _execute_shard_from_shm,
            tasks,
            jobs=effective,
            # One shard per future: shards are already the coarse unit.
            chunksize=1,
        )
    finally:
        shm_set.unlink()
    totals = []
    harvest = iter(results)
    for _ in policies:
        total = FleetAccumulator()
        for _ in bounds:
            total.merge(next(harvest))
        totals.append(total)
    return totals
