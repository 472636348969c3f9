"""Scenario execution.

``run_scenario`` replays one frozen :class:`~repro.sim.trace.Trace`
under a given forwarding policy, as a one-device fleet shard: the
device is a row of the shard's binding table until an event needs its
proxy/link/device objects. ``run_paired`` executes the paper's methodology: the
same trace under the on-line baseline and under the policy, yielding the
waste/loss pair.

The on-line baseline run depends only on the trace, the threshold, and
the run keyword arguments — never on the policy under evaluation — so
sweeping a policy knob against a fixed scenario re-executes the same
baseline for every cell. :func:`run_baseline` memoizes it in a small
per-process LRU; ``run_paired`` (and therefore ``run_paired_config`` and
every figure's measure function) consults that cache. Baseline runs are
deterministic, so cached reuse is bit-for-bit identical to re-execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.accounting import RunStats
from repro.metrics.waste_loss import PairedMetrics, pair_metrics
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.proxy.schedule import DeliverySchedule
from repro.proxy.state import TopicState
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.types import EventId, TopicId, TopicType
from repro.workload.scenario import ScenarioConfig, build_trace_cached

#: Topic id used for single-topic trace replays.
DEFAULT_TOPIC = TopicId("experiment/topic")


def register_trace_streams(
    sim: Simulator,
    trace: Trace,
    topic: TopicId,
    on_notification: Callable[[Notification], None],
    perform_read: Callable,
    set_status: Callable,
) -> Dict[EventId, Notification]:
    """Register a trace's four event streams on a simulator.

    Each run materializes fresh Notification objects: the proxy mutates
    ranks in place, and paired runs must not observe each other. The
    four trace streams replay straight from the columnar arrays (no
    per-record dataclass is ever built on this path — important for
    workers attached to a shared-memory trace). They are pre-sorted, so
    they replay as lazy static streams: the engine heap holds one
    cursor per stream plus the dynamic timers, instead of every trace
    record up front. Stream registration order matters — it reserves
    the same FIFO sequence numbers that per-record schedule_at calls in
    this order would get.

    This is the only scalar trace replay, and the fleet's scalar oracle
    (``_execute_shard(..., use_batch=False)`` and its one-device form,
    the reference :func:`run_scenario` is tested against) is its one
    caller: once per device of a shard. The batch pump
    (:mod:`repro.fleet.batch`), which :func:`run_scenario` runs, merges
    these same four streams across devices in the same order, so both
    replay a device's trace with one event ordering. Returns the id →
    original Notification map (the rank-change stream closes over it).
    """
    cols = trace.columns
    originals: Dict[EventId, Notification] = {}
    arrival_stream: List[Tuple[float, Callable, tuple]] = []
    arrival_cols = cols.arrivals
    for time, event_id, rank, expires_at in zip(
        arrival_cols.times.tolist(),
        arrival_cols.event_ids.tolist(),
        arrival_cols.ranks.tolist(),
        arrival_cols.expires_at.tolist(),
    ):
        notification = Notification(
            event_id=EventId(event_id),
            topic=topic,
            rank=rank,
            published_at=time,
            # NaN != NaN: the only NaN in the column is the sentinel.
            expires_at=None if expires_at != expires_at else expires_at,
        )
        originals[notification.event_id] = notification
        arrival_stream.append((time, on_notification, (notification,)))
    sim.add_stream(arrival_stream)

    change_stream: List[Tuple[float, Callable, tuple]] = []
    change_cols = cols.rank_changes
    for time, event_id, new_rank in zip(
        change_cols.times.tolist(),
        change_cols.event_ids.tolist(),
        change_cols.new_ranks.tolist(),
    ):
        original = originals[EventId(event_id)]
        update = Notification(
            event_id=original.event_id,
            topic=topic,
            rank=new_rank,
            published_at=original.published_at,
            expires_at=original.expires_at,
        )
        change_stream.append((time, on_notification, (update,)))
    sim.add_stream(change_stream)

    sim.add_stream(
        [
            (time, perform_read, (topic, count))
            for time, count in zip(
                cols.reads.times.tolist(), cols.reads.counts.tolist()
            )
        ]
    )
    sim.add_stream(
        [(time, set_status, (status,)) for time, status in trace.network_transitions()]
    )
    return originals


def wire_device(
    sim: Simulator,
    proxy: LastHopProxy,
    topic: TopicId,
    threshold: float,
    stats: RunStats,
    plan: Optional[FaultPlan],
    recorder,
    topic_type: TopicType = TopicType.ON_DEMAND,
    schedule: Optional[DeliverySchedule] = None,
) -> Tuple[LastHopLink, ClientDevice, TopicState]:
    """Wire one device to ``proxy`` as a binding on ``topic``.

    Builds the last-hop link and the device, registers the topic on
    both ends, attaches the device to the proxy and the proxy's
    ``NETWORK`` handler to the link, and schedules the fault plan's
    crash timers. ``threshold`` is the subscription's qualitative
    limit, applied at the proxy (rank filtering) and at the device
    (read filtering). This is the only place a link/device/binding trio
    is built, and the order of its steps is part of the contract: it
    fixes the listener order and the crash timers' sequence numbers, so
    a device wired here behaves the same in a single-device run and in
    a fleet shard.
    """
    link = LastHopLink(sim, stats, faults=plan, recorder=recorder)
    device = ClientDevice(sim, link, stats, faults=plan)
    device.add_topic(topic, threshold)
    state = proxy.add_binding(
        topic,
        transport=link,
        stats=stats,
        topic_type=topic_type,
        rank_threshold=threshold,
        schedule=schedule,
    )
    device.attach_proxy(proxy)
    link.add_status_listener(partial(proxy.on_topic_network, topic))
    if plan is not None:
        for crash_time in plan.crash_times:
            sim.schedule_at(
                crash_time,
                proxy.crash_restart_topic,
                topic,
                plan.spec.restart_delay,
            )
    return link, device, state


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run."""

    stats: RunStats
    policy: PolicyConfig
    events_processed: int
    #: Proxy's final view of the topic, for diagnostics.
    final_proxy_queued: int
    final_device_queued: int


@dataclass(frozen=True)
class PairedResult:
    """Outcome of a paired (on-line baseline, policy) execution."""

    baseline: RunResult
    policy: RunResult
    metrics: PairedMetrics


def trace_seed(trace: Trace) -> int:
    """The seed a run realizes its fault plan from (0 if the trace has none)."""
    return int(trace.metadata.get("seed", 0) or 0)


def run_scenario(
    trace: Trace,
    policy: PolicyConfig,
    threshold: float = 0.0,
    topic_type: TopicType = TopicType.ON_DEMAND,
    schedule: Optional[DeliverySchedule] = None,
    faults: Optional[FaultSpec] = None,
) -> RunResult:
    """Replay ``trace`` under ``policy`` and return the run's statistics.

    The run is a one-device fleet shard
    (:func:`repro.fleet.runner._run_device_shard`): the batch pump over
    one row of the binding table, whose resident handlers cost a few
    calls per event against the object path's dozens. What the row
    cannot express escapes through the shard's own materialization onto
    the proxy/link/device objects, on the same code path:

    * an expiring arrival (the row arms no expiration timer), at the
      first one — Figs. 4–6;
    * a rank change (it resolves against the proxy's history), at
      wiring — ablation-delay;
    * a RATE arrival (the row has no credit line), at the first one;
    * observers (``--audit``, ``--trace-out``) and crash specs, at
      wiring;
    * an ON-LINE topic type or a delivery schedule, at wiring —
      ablation-schedule.

    The result is the scalar oracle's field for field — the identity
    sets, the bits of ``read_delay_sum``, ``events_processed`` and both
    final queues — which the differential tests pin. The binding is the
    shard's device 0, so trace records name its topic ``device/0``.

    ``threshold`` is the subscription's qualitative limit, applied both
    at the proxy (rank filtering) and at the device (read filtering).

    When process-wide observability is configured (:func:`repro.obs.
    configure` — the CLI's ``--trace-out`` / ``--audit`` / ``--obs``),
    the proxy records delivery-path trace records into the shared ring
    buffer and samples the invariant audit; observability never changes
    the simulated outcome, only raises on a violated invariant.

    ``faults`` injects last-hop loss/duplication/jitter, proxy crashes,
    and read-report corruption per :mod:`repro.faults`, realized from
    the trace's seed (:func:`trace_seed`); None runs fault-free. A null
    spec realizes to no plan at all, so it is byte-identical to passing
    None.
    """
    # repro.fleet.runner imports this module at import time, so the
    # fleet imports stay inside the function (as in
    # parallel.run_fleet_policy_batch).
    from repro.fleet.runner import _run_device_shard
    from repro.fleet.workload import FleetWorkload

    policy.validate()
    obs.PROBES.count("runs")
    return _run_device_shard(
        FleetWorkload.from_traces([trace], threshold),
        policy,
        faults,
        topic_type=topic_type,
        schedule=schedule,
    )


#: Per-process LRU of on-line baseline runs, keyed by trace identity +
#: threshold + run kwargs. Policy sweeps against a fixed scenario ask
#: for the identical baseline once per cell; the cache collapses those
#: into one simulated run per (trace, threshold, kwargs).
_BASELINE_CACHE: "OrderedDict[tuple, Tuple[Trace, RunResult]]" = OrderedDict()

#: Baseline results kept per process. Figure grids revisit at most a few
#: dozen distinct traces within any submission window.
BASELINE_CACHE_SIZE: int = 16


def clear_baseline_cache() -> None:
    """Drop every cached baseline run."""
    _BASELINE_CACHE.clear()


def run_baseline(
    trace: Trace,
    threshold: float = 0.0,
    faults: Optional[FaultSpec] = None,
    **kwargs,
) -> RunResult:
    """The on-line baseline run for ``trace``, memoized per process.

    Keyed by trace identity (the per-process trace LRU hands out one
    object per ``(config, seed)``, so identity is exactly trace
    equality there), the threshold, the fault spec (a null spec keys
    like None, since both run fault-free), and the remaining run
    kwargs. The returned :class:`RunResult` may be shared between
    callers and must be treated as read-only — the paired metrics
    computation only ever reads it.
    """
    probes = obs.PROBES
    if faults is not None and faults.is_null:
        faults = None
    key = (id(trace), float(threshold), faults, tuple(sorted(kwargs.items())))
    entry = _BASELINE_CACHE.get(key)
    if entry is not None and entry[0] is trace:
        _BASELINE_CACHE.move_to_end(key)
        probes.count("baseline-cache-hits")
        return entry[1]
    with probes.phase("baseline"):
        result = run_scenario(
            trace, PolicyConfig.online(), threshold=threshold, faults=faults,
            **kwargs,
        )
    # The entry keeps the trace alive, so its id cannot be reused by a
    # different (garbage-collected-and-reallocated) trace while cached.
    _BASELINE_CACHE[key] = (trace, result)
    while len(_BASELINE_CACHE) > BASELINE_CACHE_SIZE:
        _BASELINE_CACHE.popitem(last=False)
    return result


def run_paired(
    trace: Trace,
    policy: PolicyConfig,
    threshold: float = 0.0,
    **kwargs,
) -> PairedResult:
    """Execute the paper's paired methodology on one trace.

    The on-line scenario "serves as the baseline for computing loss and
    as the cap for the maximum level of waste"; the policy scenario is
    whatever is being evaluated. The baseline comes from the per-process
    :func:`run_baseline` LRU, so evaluating several policies against one
    ``(trace, threshold)`` simulates the baseline once.
    """
    baseline = run_baseline(trace, threshold=threshold, **kwargs)
    with obs.PROBES.phase("variant"):
        candidate = run_scenario(trace, policy, threshold=threshold, **kwargs)
    return PairedResult(
        baseline=baseline,
        policy=candidate,
        metrics=pair_metrics(baseline.stats, candidate.stats),
    )


def run_paired_config(
    config: ScenarioConfig,
    policy: PolicyConfig,
    seed: Optional[int] = None,
    **kwargs,
) -> PairedResult:
    """Build the trace from a :class:`ScenarioConfig`, then run paired.

    The trace comes from the per-process trace LRU, so sweeping several
    policies against one ``(config, seed)`` builds it once.
    """
    with obs.PROBES.phase("trace-build"):
        trace = build_trace_cached(config, seed=seed)
    return run_paired(trace, policy, threshold=config.threshold, **kwargs)
