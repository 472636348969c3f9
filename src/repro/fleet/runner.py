"""Fleet execution: one proxy, thousands of device bindings, one clock.

A shard is one :class:`~repro.sim.engine.Simulator` carrying a single
:class:`~repro.proxy.proxy.LastHopProxy` and one binding per device.
Each binding's runtime is fixed at wiring: a bare row of the shard's
binding table (:class:`~repro.fleet.columns.FleetColumns`) for the whole
run, or its object graph — a compact :class:`~repro.proxy.state.
TopicState` at the proxy plus a :class:`~repro.device.link.LastHopLink`
/ :class:`~repro.device.device.ClientDevice` pair and a
``SketchedStats`` — built by :meth:`ShardWiring.materialize` before the
run: every binding of a shard that cannot run on rows alone, and those
whose input a row does not model.

The batch pump replays the shard as **one merged stream**
(:mod:`repro.fleet.batch`), so the engine heap stays O(1) in the device
count. The scalar oracle merges nothing: it schedules each device's own
trace, in local-id order, one ``schedule_at`` per record
(:func:`_schedule_trace`). Both draw the same total sequence block and
keep every device's own event order; only the order *between* devices
at an equal time differs, which nothing shared observes.
:func:`~repro.experiments.runner.run_scenario` is this shard with one
device (:func:`_run_device_shard`), so a fleet device and a
single-device run replay one event sequence, which the differential
tests pin against the oracle.

The table (rows plus the materialized bindings' stats) folds into a
:class:`~repro.metrics.streaming.FleetAccumulator` when the shard
finishes; nothing per-device survives the shard,
so parent-side memory is O(shards) no matter how many devices run.

A shard's fault spec (None = fault-free) is an argument; the only
process-wide state it reads is :mod:`repro.obs`. Every shard runs
through the batch pump; the scalar oracle the tests compare it against
(every binding materialized at wiring) is reached only through the
private ``_execute_shard(..., use_batch=False)``.

Determinism across sharding: devices never interact (separate topics,
links, fault plans hashed on the device's derived seed), so each
device's outcome depends only on its own trace and plan — not on which
shard ran it or which devices shared its simulator. The accumulator's
integer counters are therefore bit-identical under any ``(shards,
jobs)`` partitioning; float sums merge up to reassociation.
"""

from __future__ import annotations

import gc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError
from repro.experiments import parallel
from repro.experiments.runner import RunResult, wire_device
from repro.faults import FaultPlan, FaultSpec
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.columns import FleetColumns
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.workload import FleetWorkload, build_fleet_workload
from repro.metrics.streaming import FleetAccumulator, SketchedStats, device_stats
from repro.proxy.policies import PolicyConfig
from repro.proxy.prefetch import BufferPrefetcher
from repro.proxy.proxy import LastHopProxy
from repro.proxy.schedule import DeliverySchedule
from repro.sim import trace_shm
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.types import EventId, PolicyKind, TopicId, TopicType


def device_topic(device: int) -> TopicId:
    """The binding topic of global device ``device``."""
    return TopicId(f"device/{device}")


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet campaign."""

    config: FleetScenarioConfig
    policy: PolicyConfig
    accumulator: FleetAccumulator
    shards: int
    jobs: int

    @property
    def devices(self) -> int:
        return self.accumulator.devices

    @property
    def waste(self) -> float:
        return self.accumulator.waste

    def describe(self) -> str:
        return self.accumulator.describe()


@contextmanager
def _bulk_allocation() -> Iterator[None]:
    """Suspend the cyclic collector while a shard allocates its fleet.

    Wiring N devices allocates ~20 long-lived objects each; with the
    collector enabled, every generation sweep rescans the whole
    (growing) fleet, turning setup quadratic-ish in N. Collection is
    paused for the bulk phase and the prior state restored afterwards —
    the fleet's objects live until the shard ends regardless, so pausing
    changes no outcome, only removes rescans.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _execute_shard(
    workload: FleetWorkload,
    policy: PolicyConfig,
    fault_spec: Optional[FaultSpec] = None,
    use_batch: bool = True,
) -> FleetAccumulator:
    """Run one shard's devices on one simulator; fold into an accumulator.

    :meth:`ShardWiring.materialize` wires a binding through the same
    :func:`~repro.experiments.runner.wire_device` the scalar oracle
    uses, and the pump's merged stream preserves each device's
    within-device event order, so a device's statistics are identical
    whether it runs on its row or on objects — and
    :func:`~repro.experiments.runner.run_scenario` is this shard with
    one device (:func:`_run_device_shard`).

    ``use_batch=False`` runs the scalar oracle instead of the batch
    pump: every binding materialized at wiring, then each device's
    :meth:`~repro.fleet.workload.FleetWorkload.device_trace` scheduled
    record by record (:func:`_schedule_trace`), so every event lands on
    a scalar callback. It exists for the
    differential tests, which pin both to bit-identical outputs; no
    public entry point reaches it.
    """
    obs.PROBES.count("fleet-shards")
    with _bulk_allocation():
        acc, sim, proxy, cols = _run_shard(workload, policy, fault_spec, use_batch)
        acc.add_shard(cols, *_final_queues(proxy, cols))
        acc.events_processed = sim.events_processed
        _dismantle_shard(sim, proxy, cols)
        # Free the shard while the collector is still off: the frees
        # offset the allocations it counted, so turning it back on does
        # not start a collection over a heap about to be dropped.
        del sim, proxy, cols
    return acc


def _run_device_shard(
    workload: FleetWorkload,
    policy: PolicyConfig,
    fault_spec: Optional[FaultSpec] = None,
    *,
    topic_type: TopicType = TopicType.ON_DEMAND,
    schedule: Optional[DeliverySchedule] = None,
    use_batch: bool = True,
) -> RunResult:
    """Run a one-device workload as a shard and report its device.

    This is :func:`~repro.experiments.runner.run_scenario`'s one code
    path. The row records the ids it reads, so device 0's
    :class:`~repro.metrics.accounting.RunStats` — identity sets included
    — comes out of :func:`~repro.metrics.streaming.device_stats`. A
    topic type other than ON-DEMAND or a delivery schedule is wired into
    the binding, which then materializes at wiring: the row models
    neither. It is no ``fleet-shards`` probe, keeps no accumulator (no
    read-age sketch: ``RunResult`` reads none), and the collector stays
    on (one device allocates little). ``use_batch=False`` gives the
    scalar oracle the differential tests compare it against.
    """
    _acc, sim, proxy, cols = _run_shard(
        workload, policy, fault_spec, use_batch,
        read_ids=True, topic_type=topic_type, schedule=schedule,
    )
    proxy_queued, device_queued = _final_queues(proxy, cols)
    result = RunResult(
        stats=device_stats(cols, 0),
        policy=policy,
        events_processed=sim.events_processed,
        final_proxy_queued=proxy_queued,
        final_device_queued=device_queued,
    )
    _dismantle_shard(sim, proxy, cols)
    return result


class ShardWiring:
    """Builds the object graphs of the bindings a row cannot run.

    Every binding of a shard has a row of the shard's
    :class:`~repro.fleet.columns.FleetColumns`. :meth:`materialize` is
    the only place the fleet builds a device's ``SketchedStats`` and,
    through :func:`~repro.experiments.runner.wire_device`, its
    ``LastHopLink`` / ``ClientDevice`` / ``TopicState``, before the run:
    for every binding when the shard cannot take the resident handlers
    (the scalar oracle, RATE, a fault spec that arms proxy crashes,
    observers, an ON-LINE topic or a delivery schedule), and for those
    whose input carries a rank change otherwise.
    """

    __slots__ = (
        "sim", "proxy", "acc", "workload", "cols", "spec", "recorder",
        "topic_type", "schedule",
    )

    def __init__(
        self,
        sim: Simulator,
        proxy: LastHopProxy,
        acc: FleetAccumulator,
        workload: FleetWorkload,
        cols: FleetColumns,
        spec: Optional[FaultSpec],
        recorder,
        topic_type: TopicType,
        schedule: Optional[DeliverySchedule],
    ) -> None:
        self.sim = sim
        self.proxy = proxy
        self.acc = acc
        self.workload = workload
        self.cols = cols
        #: None when no fault applies; otherwise a validated spec from
        #: which every device realizes its own plan (:meth:`plan`).
        self.spec = spec
        self.recorder = recorder
        #: Every binding's topic type and delivery schedule.
        self.topic_type = topic_type
        self.schedule = schedule

    def plan(self, index: int) -> FaultPlan:
        """Binding ``index``'s fault plan under the shard's spec, realized
        on first use and then shared by its row and its objects."""
        plans = self.cols.plans
        plan = plans[index]
        if plan is None:
            workload = self.workload
            plan = plans[index] = FaultPlan.realize(
                self.spec, workload.fault_seed(index), workload.config.duration
            )
        return plan

    def materialize(self, index: int) -> None:
        """Wire binding ``index`` as objects, before the run.

        The wiring is :func:`~repro.experiments.runner.wire_device`, the
        same helper :func:`~repro.experiments.runner.run_scenario` uses,
        so ctor order, listener registration order and crash timers
        match it exactly (only a shard materialized whole at wiring has
        crash plans, so the timers land before the streams register).
        The row was never touched, so the binding is wired exactly as if
        no row had ever existed. Idempotent: a materialized binding is
        left alone.
        """
        cols = self.cols
        if not cols.resident[index]:
            return
        acc = self.acc
        stats = SketchedStats(
            delay_sketch=None if acc is None else acc.read_delay_sketch,
            delay_moments=None if acc is None else acc.read_delay_moments,
        )
        topic = device_topic(self.workload.lo + index)
        link, device, _state = wire_device(
            self.sim, self.proxy, topic, self.workload.config.threshold, stats,
            None if self.spec is None else self.plan(index), self.recorder,
            topic_type=self.topic_type, schedule=self.schedule,
        )
        cols.topics[index] = topic
        cols.stats[index] = stats
        cols.links[index] = link
        cols.clients[index] = device
        cols.resident[index] = 0


def _schedule_trace(
    sim: Simulator,
    trace: Trace,
    topic: TopicId,
    proxy: LastHopProxy,
    device: ClientDevice,
    link: LastHopLink,
) -> None:
    """Schedule every record of one device's trace on the scalar oracle.

    One ``schedule_at`` per record, kind by kind: arrivals, rank
    changes, reads, link transitions. That order gives every record the
    sequence number the pump's merged stream reserves for it, so the
    oracle fires a device's events in the pump's order. Every call
    builds fresh Notification objects: the proxy mutates ranks in place.
    """
    cols = trace.columns
    schedule_at = sim.schedule_at
    on_notification = proxy.on_notification
    originals: Dict[int, Notification] = {}
    arrivals = cols.arrivals
    for time, event_id, rank, expires_at in zip(
        arrivals.times.tolist(),
        arrivals.event_ids.tolist(),
        arrivals.ranks.tolist(),
        arrivals.expires_at.tolist(),
    ):
        notification = originals[event_id] = Notification(
            event_id=EventId(event_id),
            topic=topic,
            rank=rank,
            published_at=time,
            # NaN != NaN: the only NaN in the column is the sentinel.
            expires_at=None if expires_at != expires_at else expires_at,
        )
        schedule_at(time, on_notification, notification)
    changes = cols.rank_changes
    for time, event_id, new_rank in zip(
        changes.times.tolist(),
        changes.event_ids.tolist(),
        changes.new_ranks.tolist(),
    ):
        original = originals[event_id]
        update = Notification(
            event_id=original.event_id,
            topic=topic,
            rank=new_rank,
            published_at=original.published_at,
            expires_at=original.expires_at,
        )
        schedule_at(time, on_notification, update)
    for time, count in zip(cols.reads.times.tolist(), cols.reads.counts.tolist()):
        schedule_at(time, device.perform_read, topic, count)
    for time, status in trace.network_transitions():
        schedule_at(time, link.set_status, status)


def _run_shard(
    workload: FleetWorkload,
    policy: PolicyConfig,
    spec: Optional[FaultSpec],
    use_batch: bool,
    *,
    read_ids: bool = False,
    topic_type: TopicType = TopicType.ON_DEMAND,
    schedule: Optional[DeliverySchedule] = None,
) -> Tuple[Optional[FleetAccumulator], Simulator, LastHopProxy, FleetColumns]:
    """Wire one shard and run it to the end of its workload; the caller
    folds the table and dismantles the shard."""
    obs_ctx = obs.active()
    recorder = None if obs_ctx is None else obs_ctx.recorder
    auditor = None if obs_ctx is None else obs_ctx.auditor
    # One device (read_ids) reports device_stats, which reads no sketch.
    acc = None if read_ids else FleetAccumulator()
    sim = Simulator()
    proxy = LastHopProxy(sim, policy, recorder=recorder, auditor=auditor)
    n = workload.devices
    if spec is not None and spec.is_null:
        spec = None
    if spec is not None:
        spec.validate()
    cols = FleetColumns(
        n,
        BufferPrefetcher(policy).limit_for(None),
        faulted=spec is not None,
        online=policy.kind is PolicyKind.ONLINE,
        read_ids=read_ids,
        expiring=not np.isnan(workload.arrivals.expires_at).all(),
    )
    wiring = ShardWiring(
        sim, proxy, acc, workload, cols, spec, recorder, topic_type, schedule
    )

    # Wiring: materialize now whatever can never take a resident
    # handler. Local-id order, before any stream registers — crash
    # timers draw their sequence numbers here.
    eager: Iterable[int] = range(n)
    dispatcher = None
    if use_batch:
        dispatcher = ShardBatchDispatcher(
            sim=sim,
            workload=workload,
            proxy=proxy,
            policy=policy,
            cols=cols,
            accumulator=acc,
            spec=spec,
            plan_for=wiring.plan,
            recorder=recorder,
            auditor=auditor,
        )
        if (
            dispatcher.keeps_rows
            and topic_type is TopicType.ON_DEMAND
            and schedule is None
        ):
            # The row models the default binding. A rank change resolves
            # against the durable history of the binding's earlier
            # arrivals, which a row does not keep.
            eager = np.flatnonzero(workload.change_counts).tolist()
    for index in eager:
        wiring.materialize(index)

    if dispatcher is not None:
        dispatcher.register_streams()
    else:
        for index in range(n):
            _schedule_trace(
                sim,
                workload.device_trace(index),
                cols.topics[index],
                proxy,
                cols.clients[index],
                cols.links[index],
            )

    try:
        sim.run(until=workload.config.duration)
    finally:
        obs.PROBES.count("events", sim.events_processed)
    return acc, sim, proxy, cols


def _final_queues(proxy: LastHopProxy, cols: FleetColumns) -> Tuple[int, int]:
    """What the shard's proxy and devices still queue at the end: the
    materialized bindings' ranked queues, plus each resident binding's
    row — its ``proxy_queue`` and ``proxy_holding`` at the proxy, and
    its ``held`` on the device."""
    return (
        sum(
            len(st.outgoing) + len(st.prefetch) + len(st.holding)
            for st in proxy._states.values()
        )
        + sum(len(q) for c in (cols.proxy_queue, cols.proxy_holding) for q in c if q),
        sum(
            device.queue_size(topic)
            for device, topic in zip(cols.clients, cols.topics)
            if device is not None
        )
        + sum(len(held) for held in cols.held if held),
    )


def _dismantle_shard(
    sim: Simulator, proxy: LastHopProxy, cols: FleetColumns
) -> None:
    """Break the shard's reference cycles so plain refcounting frees it.

    The device ↔ link ↔ proxy ↔ simulator graph of every materialized
    binding is cyclic (listeners hold bound methods, heap events hold
    states, devices hold the proxy); with the cyclic collector
    suspended for the shard's lifetime (:func:`_bulk_allocation`), an
    unbroken graph would survive until a later full GC sweep — which
    lands in the middle of the *next* shard (or benchmark round).
    Everything the caller needs has been folded into the accumulator by
    now. Resident rows hold no cycle and need nothing.
    """
    for _time, _seq, event in sim._heap:
        stream = event.stream
        if stream is not None:
            # Streams the duration cap left unexhausted still hold the
            # cursor <-> stream cycle the engine breaks at exhaustion.
            stream.entry = None
            event.stream = None
    sim._heap.clear()
    for link, device in zip(cols.links, cols.clients):
        if link is not None:
            link._listeners.clear()
            link._device = None
            device._proxy = None
    proxy._states.clear()


def _execute_shard_from_shm(
    name: str,
    config: FleetScenarioConfig,
    policy: PolicyConfig,
    fault_spec: Optional[FaultSpec],
) -> FleetAccumulator:
    """Worker entry: run the shard published as segment ``name``.

    The columns are attached zero-copy and the handle is closed before
    returning. A missing or malformed segment raises
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    packed, handle = trace_shm.read_trace(name)
    try:
        return _execute_shard(
            FleetWorkload.from_trace(config, packed), policy, fault_spec
        )
    except BaseException as exc:
        # The traceback keeps the failed shard's frames, and through
        # their locals views into the segment, alive; drop them so the
        # handle can close.
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        del packed
        handle.close()


def run_fleet(
    config: FleetScenarioConfig,
    policy: Optional[PolicyConfig] = None,
    *,
    shards: int = 1,
    jobs: int = 1,
    faults: Optional[FaultSpec] = None,
    workload: Optional[FleetWorkload] = None,
) -> FleetResult:
    """Run a whole fleet campaign; results invariant to ``(shards, jobs)``.

    The workload is generated once (vectorized, in the parent) and
    sharded into contiguous device ranges; ``jobs`` worker processes
    execute shards with the columns handed off through shared memory.
    ``faults`` applies the same :class:`FaultSpec` to every device, each
    realizing its own plan from its derived seed; None runs fault-free.
    Pass ``workload`` to reuse an already-built
    :func:`build_fleet_workload` result (it must match ``config``).
    Every shard runs on the batch pump over its binding table.
    """
    config.validate()
    if policy is None:
        policy = PolicyConfig()
    policy.validate()
    if workload is None:
        with obs.PROBES.phase("fleet-build"):
            workload = build_fleet_workload(config)
    elif workload.config != config:
        raise ConfigurationError(
            "run_fleet: the workload passed in was built from a different "
            f"config ({workload.config!r}) than the one being run ({config!r})"
        )
    (accumulator,) = parallel.run_fleet_policy_batch(
        workload,
        [policy],
        shards=shards,
        jobs=jobs,
        fault_spec=faults,
    )
    return FleetResult(
        config=config,
        policy=policy,
        accumulator=accumulator,
        shards=shards,
        jobs=jobs,
    )
