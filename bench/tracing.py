"""Span tracing from outside: wrappers around the layer-boundary callables.

Nothing under ``src/`` knows about this. A :class:`Tracer` replaces each
callable in :data:`PATCHES` with a wrapper that records one span
``[name, start, end, parent]`` per call, keeps the spans in memory, and
puts the original back on ``uninstall``. :func:`ledger` folds one
repetition's spans into the per-layer metrics of ``BENCHMARK.json``;
:func:`probe_sweep_layers` times, by direct calls, the layers whose work
happens in pool workers where the parent's wrappers cannot see it.

Layer names are the repo's modules. Total time of a name is the sum of
its spans; self time subtracts each span's direct children, so nested
spans (``cell_key`` → ``canonical_json``, ``run_scenario`` →
``Simulator.run``) are never counted twice.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.experiments.parallel as parallel_mod
import repro.experiments.runner as scenario_runner_mod
import repro.fleet.runner as fleet_runner_mod
import repro.fleet.store as store_mod
import repro.fleet.sweep as sweep_mod
import repro.fleet.tune as tune_mod
import repro.fleet.workload as workload_mod
import repro.workload.scenario as scenario_mod
from repro.experiments.parallel import FleetWorkloadCache, parallel_map
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.store import SweepStore
from repro.fleet.sweep import run_fleet_sweep
from repro.fleet.workload import FleetWorkload, build_fleet_workload, shard_bounds
from repro.metrics.streaming import FleetAccumulator
from repro.sim import trace_shm
from repro.sim.engine import Simulator

import workloads

# Span names, one per layer boundary.
BUILD = "fleet.workload.build"
SHARD = "fleet.workload.shard"
CACHE_GET = "experiments.parallel.workload_cache"
BATCH = "experiments.parallel.batch"
EXEC_SHARD = "fleet.runner.shard"
DISMANTLE = "fleet.runner.dismantle"
BATCH_INIT = "fleet.batch.init"
BATCH_REGISTER = "fleet.batch.register"
SIM_RUN = "sim.engine.run"
RUN_SCENARIO = "experiments.runner.run_scenario"
BUILD_TRACE = "workload.scenario.build_trace"
ADD_SHARD = "metrics.streaming.add_shard"
MERGE = "metrics.streaming.merge"
STORE_APPEND = "fleet.store.append"
STORE_READ = "fleet.store.read"
STORE_META = "fleet.store.meta"
STORE_KEY = "fleet.store.key"
SWEEP = "fleet.sweep.campaign"
TUNE = "fleet.tune.campaign"


def _count_workload(counts, result, *args) -> None:
    counts["workload.events"] += result.total_events
    counts["workload.bytes"] += workload_bytes(result)


def _count_cache(counts, result, cache, *args) -> None:
    # ``get`` bumps exactly one of the two; read them off the instance.
    counts["tune.cache_hits"] = cache.hits
    counts["tune.cache_builds"] = cache.builds


def _count_shard_devices(counts, result, workload, *args) -> None:
    counts["runner.devices"] += workload.devices


def _count_events(counts, result, sim, *args) -> None:
    counts["sim.events"] += sim.events_processed


#: (owner, attribute, span name, after-call counter hook). A function
#: imported by name is patched in every module that holds a binding on a
#: workload's path; the bench's own bindings of the campaign entry
#: points give the fleet.sweep / fleet.tune layers their spans.
PATCHES: Tuple[Tuple[Any, str, str, Optional[Callable]], ...] = (
    (workload_mod, "build_fleet_workload", BUILD, _count_workload),
    (fleet_runner_mod, "build_fleet_workload", BUILD, _count_workload),
    (sweep_mod, "build_fleet_workload", BUILD, _count_workload),
    (FleetWorkload, "shard", SHARD, None),
    (FleetWorkloadCache, "get", CACHE_GET, _count_cache),
    (parallel_mod, "run_fleet_policy_batch", BATCH, None),
    (fleet_runner_mod, "_execute_shard", EXEC_SHARD, _count_shard_devices),
    (fleet_runner_mod, "_dismantle_shard", DISMANTLE, None),
    (ShardBatchDispatcher, "__init__", BATCH_INIT, None),
    (ShardBatchDispatcher, "register_streams", BATCH_REGISTER, None),
    (Simulator, "run", SIM_RUN, _count_events),
    (scenario_runner_mod, "run_scenario", RUN_SCENARIO, None),
    (scenario_mod, "build_trace", BUILD_TRACE, None),
    (FleetAccumulator, "add_shard", ADD_SHARD, None),
    (FleetAccumulator, "merge", MERGE, None),
    (SweepStore, "append", STORE_APPEND, None),
    (SweepStore, "existing_keys", STORE_READ, None),
    (SweepStore, "get", STORE_READ, None),
    (SweepStore, "rows", STORE_READ, None),
    (SweepStore, "get_best", STORE_READ, None),
    (SweepStore, "__init__", STORE_META, None),
    (SweepStore, "register_campaign", STORE_META, None),
    (SweepStore, "record_best", STORE_META, None),
    (store_mod, "canonical_json", STORE_KEY, None),
    (store_mod, "cell_key", STORE_KEY, None),
    (sweep_mod, "canonical_json", STORE_KEY, None),
    (sweep_mod, "cell_key", STORE_KEY, None),
    (tune_mod, "canonical_json", STORE_KEY, None),
    (tune_mod, "cell_key", STORE_KEY, None),
    (workloads, "run_fleet_sweep", SWEEP, None),
    (workloads, "run_fleet_tune", TUNE, None),
)


class Tracer:
    """Records spans around the callables in :data:`PATCHES`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1], in call order.
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, result, *args)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, after in PATCHES:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op.

    Spans times this is what the wrappers cost a repetition — a few
    milliseconds at most, which the wall-clock ratio of a traced and a
    plain repetition (``trace.overhead_share``) cannot resolve on a host
    whose repetitions differ by several percent.
    """
    def noop() -> None:
        pass

    wrapped = Tracer()._wrap("calibration", noop, None)
    clock = time.perf_counter
    started = clock()
    for _ in range(calls):
        noop()
    bare = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, ((clock() - bare) - (bare - started)) / calls)


# ----------------------------------------------------------------------
# Ledger: one repetition's spans -> per-layer metrics
# ----------------------------------------------------------------------

#: name -> unit of every per-layer metric, in reporting order. A layer a
#: workload never enters reports 0.
PER_LAYER: Dict[str, str] = {
    "workload.build_s": "s",
    "workload.events": "count",
    "workload.bytes": "bytes",
    "workload.shard_s": "s",
    "tune.cache_hits": "count",
    "tune.cache_builds": "count",
    "shm.publish_s": "s",
    "shm.attach_s": "s",
    "shm.bytes": "bytes",
    "shm.unlink_s": "s",
    "parallel.pool_s": "s",
    "parallel.batch_s": "s",
    "parallel.batch_calls": "count",
    "parallel.idle_share": "share",
    "runner.shard_s": "s",
    "runner.wire_self_s": "s",
    "runner.dismantle_s": "s",
    "runner.wire_us_per_device": "us",
    "batch.init_s": "s",
    "batch.register_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "runner.run_scenario_s": "s",
    "runner.run_scenario_calls": "count",
    "trace.build_s": "s",
    "fold.add_shard_s": "s",
    "fold.merge_s": "s",
    "fold.merges": "count",
    "store.append_s": "s",
    "store.appends": "count",
    "store.read_s": "s",
    "store.reads": "count",
    "store.key_s": "s",
    "store.meta_s": "s",
    "store.resume_s": "s",
    "store.file_bytes": "bytes",
    "sweep.self_s": "s",
    "tune.self_s": "s",
    "tune.evaluations": "count",
    "ledger.coverage": "share",
    "trace.spans": "count",
    "trace.span_cost_share": "share",
    "trace.overhead_share": "share",
}


def ledger(
    spans: Sequence[Sequence[Any]],
    counts: Dict[str, float],
    wall_s: float,
    worker_cpu_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``wall_s`` is the repetition's traced wall clock (the root every
    parentless span hangs off); ``worker_cpu_s`` the CPU its reaped pool
    workers used.
    """
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top_level += end - start
    for (name, start, end, parent), children in zip(spans, child_time):
        total[name] += end - start
        self_time[name] += end - start - children
        calls[name] += 1

    devices = counts.get("runner.devices", 0)
    events = counts.get("sim.events", 0)
    # Inline repetitions pass through run_fleet_policy_batch too, but
    # only its inline branch, whose time is all fleet.runner's; the
    # parallel layer is entered when the repetition reaped pool workers.
    pooled = worker_cpu_s > 0.0
    batch_s = total[BATCH] if pooled else 0.0
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(
        {
            "workload.build_s": total[BUILD],
            "workload.events": counts.get("workload.events", 0),
            "workload.bytes": counts.get("workload.bytes", 0),
            "workload.shard_s": total[SHARD],
            "tune.cache_hits": counts.get("tune.cache_hits", 0),
            "tune.cache_builds": counts.get("tune.cache_builds", 0),
            "parallel.batch_s": batch_s,
            "parallel.batch_calls": calls[BATCH] if pooled else 0,
            "runner.shard_s": total[EXEC_SHARD],
            "runner.wire_self_s": self_time[EXEC_SHARD],
            "runner.dismantle_s": total[DISMANTLE],
            "runner.wire_us_per_device": (
                1e6 * self_time[EXEC_SHARD] / devices if devices else 0.0
            ),
            "batch.init_s": total[BATCH_INIT],
            "batch.register_s": total[BATCH_REGISTER],
            "sim.run_s": total[SIM_RUN],
            "sim.events": events,
            "sim.us_per_event": 1e6 * total[SIM_RUN] / events if events else 0.0,
            "runner.run_scenario_s": total[RUN_SCENARIO],
            "runner.run_scenario_calls": calls[RUN_SCENARIO],
            "trace.build_s": total[BUILD_TRACE],
            "fold.add_shard_s": total[ADD_SHARD],
            "fold.merge_s": total[MERGE],
            "fold.merges": calls[MERGE],
            "store.append_s": total[STORE_APPEND],
            "store.appends": calls[STORE_APPEND],
            "store.read_s": self_time[STORE_READ],
            "store.reads": calls[STORE_READ],
            "store.key_s": self_time[STORE_KEY],
            "store.meta_s": self_time[STORE_META],
            "sweep.self_s": self_time[SWEEP],
            "tune.self_s": self_time[TUNE],
            "ledger.coverage": top_level / wall_s,
            "trace.spans": len(spans),
        }
    )
    if batch_s > 0.0:
        # Two workers could have been busy for the whole of every batch.
        out["parallel.idle_share"] = 1.0 - worker_cpu_s / (2.0 * batch_s)
    return out


def span_rows(spans: Sequence[Sequence[Any]], origin: float) -> List[Dict[str, Any]]:
    """Spans as JSON rows, times relative to the repetition's start."""
    return [
        {
            "id": index,
            "name": name,
            "start": start - origin,
            "end": end - origin,
            "parent": parent,
        }
        for index, (name, start, end, parent) in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# Direct probes (sweep_grid: the work happens in pool workers)
# ----------------------------------------------------------------------

def workload_bytes(workload: FleetWorkload) -> int:
    return sum(
        array.nbytes
        for array in (
            *workload.arrivals,
            *workload.reads,
            *workload.outages,
            *workload.rank_changes,
            workload.arrival_counts,
            workload.read_counts,
            workload.outage_counts,
            workload.change_counts,
            workload.limits,
        )
    )


def _noop(index: int) -> int:
    return index


def probe_sweep_layers(seed: int, scale: int, store_path: Path) -> Dict[str, float]:
    """Time the shm handoff, a pool lifetime and a resume by direct calls.

    Replays what ``run_fleet_policy_batch`` does around its workers for
    each of the sweep's four ``(scenario, seed)`` groups — pack and
    publish both shard pieces, attach them as a worker would, unlink —
    so the sums are one repetition's worth of the ``sim.trace_shm``
    layer. Runs after a traced repetition, outside its wall clock,
    while the repetition's store file still exists.
    """
    clock = time.perf_counter
    config = workloads.sweep_config(seed, scale)
    out = dict.fromkeys(
        ("shm.publish_s", "shm.attach_s", "shm.bytes", "shm.unlink_s"), 0.0
    )
    for scenario in config.scenario_grid():
        for group_seed in config.seeds:
            seeded = scenario.with_changes(seed=group_seed)
            workload = build_fleet_workload(seeded)
            pieces = [
                workload.shard(lo, hi)
                for lo, hi in shard_bounds(workload.devices, 2)
            ]
            shm_set = trace_shm.ShmTraceSet()
            try:
                started = clock()
                names = [
                    shm_set.publish(f"fleet-shard-{s}", piece.to_trace())
                    for s, piece in enumerate(pieces)
                ]
                published = clock()
                out["shm.bytes"] += sum(seg.size for seg in shm_set._segments)
                attached = [trace_shm.read_trace(name) for name in names]
                unpacked = [
                    FleetWorkload.from_trace(seeded, trace) for trace, _ in attached
                ]
                after_attach = clock()
                # Views into a segment must die before its handle closes.
                handles = [handle for _, handle in attached]
                del attached, unpacked
                for handle in handles:
                    handle.close()
            finally:
                before_unlink = clock()
                shm_set.unlink()
                out["shm.unlink_s"] += clock() - before_unlink
            out["shm.publish_s"] += published - started
            out["shm.attach_s"] += after_attach - published

    started = clock()
    parallel_map(_noop, [(i,) for i in range(8)], jobs=2)
    out["parallel.pool_s"] = clock() - started

    out["store.file_bytes"] = os.path.getsize(store_path)
    with SweepStore(store_path) as store:
        started = clock()
        resumed = run_fleet_sweep(config, store, shards=2, jobs=2, resume=True)
        out["store.resume_s"] = clock() - started
    if resumed.computed:
        raise RuntimeError(
            f"resume over a finished store computed {resumed.computed} cells"
        )
    return out
