"""Runner for multi-device cooperative scenarios (§4 future work).

One user owns a *reader* device (the phone, whose wide-area link follows
the trace's outage schedule) plus ``n_peers`` peer devices (laptop,
tablet), each with its own independently generated outage schedule and
its own last-hop proxy running the same forwarding policy. Reads happen
on the reader and, when the ad-hoc network is available, draw on every
cache in the group.

Waste and loss are computed at the *group* level: a notification
forwarded to any device and read on any device is not wasted. The loss
baseline is the usual single-device on-line run over the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.broker.message import Notification
from repro.device.cooperation import AdHocNetwork, DeviceGroup
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    DEFAULT_TOPIC,
    RunResult,
    run_baseline,
    trace_seed,
    wire_device,
)
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.accounting import RunStats
from repro.metrics.waste_loss import PairedMetrics, pair_metrics
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource, derive_seed
from repro.sim.trace import Trace
from repro.types import TopicId
from repro.workload.outages import OutageConfig, generate_outages


@dataclass(frozen=True)
class CooperationConfig:
    """Group topology and ad-hoc reachability."""

    n_peers: int = 1
    #: Downtime fraction of each peer's own wide-area link.
    peer_outage_fraction: float = 0.5
    peer_outages_per_day: float = 4.0
    peer_outage_sigma: float = 0.5
    #: Probability the ad-hoc hop works at the moment of a read.
    adhoc_availability: float = 1.0
    #: Forwarding policy of the peers' own proxies. Peers are typically
    #: less constrained than the reader (a docked laptop on mains
    #: power), so they default to a much larger prefetch buffer; None
    #: makes peers run the reader's policy.
    peer_policy: Optional[PolicyConfig] = None

    def effective_peer_policy(self, reader_policy: PolicyConfig) -> PolicyConfig:
        if self.peer_policy is not None:
            return self.peer_policy
        return PolicyConfig.buffer(prefetch_limit=1024)


@dataclass(frozen=True)
class CooperativeRunResult:
    """Outcome of one cooperative group run."""

    stats: RunStats
    borrowed: int
    events_processed: int


def run_cooperative_scenario(
    trace: Trace,
    policy: PolicyConfig,
    cooperation: CooperationConfig = CooperationConfig(),
    threshold: float = 0.0,
    topic: TopicId = DEFAULT_TOPIC,
    faults: Optional[FaultSpec] = None,
) -> CooperativeRunResult:
    """Replay ``trace`` onto a cooperating device group under ``faults``.

    The reader runs the fault plan ``run_scenario`` would build for
    ``trace``; peer ``i`` runs one seeded ``derive_seed(seed, "peer-i")``.
    Observability is ``run_scenario``'s: every proxy records into the
    active recorder and samples the active auditor. A trace with rank
    changes raises :class:`~repro.errors.ConfigurationError`: the group
    replay does not deliver them, so its paired loss would compare
    different inputs.
    """
    policy.validate()
    if trace.num_rank_changes:
        raise ConfigurationError(
            "cooperative runs do not replay rank changes; the trace has "
            f"{trace.num_rank_changes}"
        )
    obs_ctx = obs.active()
    probes = obs.PROBES
    probes.count("runs")
    recorder = None if obs_ctx is None else obs_ctx.recorder
    auditor = None if obs_ctx is None else obs_ctx.auditor
    sim = Simulator()
    stats = RunStats()
    seed = trace_seed(trace)
    rng = RandomSource(seed).spawn("cooperation")
    group = DeviceGroup(
        sim, stats, AdHocNetwork(cooperation.adhoc_availability, rng.spawn("adhoc"))
    )

    peer_policy = cooperation.effective_peer_policy(policy)
    links: List[LastHopLink] = []
    proxies: List[LastHopProxy] = []
    for index in range(1 + cooperation.n_peers):
        device_policy = policy if index == 0 else peer_policy
        plan = FaultPlan.build(
            faults,
            seed=seed if index == 0 else derive_seed(seed, f"peer-{index}"),
            duration=trace.duration,
        )
        proxy = LastHopProxy(sim, device_policy, recorder=recorder, auditor=auditor)
        link, device, _ = wire_device(
            sim, proxy, topic, threshold, stats, plan, recorder
        )
        group.add_device(device)
        links.append(link)
        proxies.append(proxy)

    # Every proxy receives every publication (same subscription), each
    # through its own Notification instances (ranks mutate in place).
    for arrival in trace.arrivals:
        for proxy in proxies:
            notification = Notification(
                event_id=arrival.event_id,
                topic=topic,
                rank=arrival.rank,
                published_at=arrival.time,
                expires_at=arrival.expires_at,
            )
            sim.schedule_at(arrival.time, proxy.on_notification, notification)

    # Reads happen on the reader, cooperatively.
    for read in trace.reads:
        sim.schedule_at(read.time, group.perform_read, topic, read.count)

    # The reader's link follows the trace; peers get their own schedules.
    for time, status in trace.network_transitions():
        sim.schedule_at(time, links[0].set_status, status)
    for index in range(1, 1 + cooperation.n_peers):
        peer_outages = generate_outages(
            OutageConfig(
                downtime_fraction=cooperation.peer_outage_fraction,
                outages_per_day=cooperation.peer_outages_per_day,
                duration_sigma=cooperation.peer_outage_sigma,
            ),
            trace.duration,
            rng.spawn(f"peer-{index}-outages"),
        )
        peer_trace = Trace(duration=trace.duration, outages=tuple(peer_outages))
        for time, status in peer_trace.network_transitions():
            sim.schedule_at(time, links[index].set_status, status)

    try:
        sim.run(until=trace.duration)
    finally:
        probes.count("events", sim.events_processed)
    return CooperativeRunResult(
        stats=stats, borrowed=group.borrowed_total, events_processed=sim.events_processed
    )


def run_cooperative_paired(
    trace: Trace,
    policy: PolicyConfig,
    cooperation: CooperationConfig = CooperationConfig(),
    threshold: float = 0.0,
    faults: Optional[FaultSpec] = None,
) -> "CooperativePairedResult":
    """Cooperative run plus the standard single-device on-line baseline.

    The baseline goes through the per-process :func:`run_baseline` LRU,
    so cooperation sweeps against a fixed reader trace share one on-line
    run with each other and with plain ``run_paired`` cells. Both halves
    run under ``faults``.
    """
    baseline = run_baseline(trace, threshold=threshold, faults=faults)
    cooperative = run_cooperative_scenario(
        trace, policy, cooperation=cooperation, threshold=threshold, faults=faults
    )
    return CooperativePairedResult(
        baseline=baseline,
        cooperative=cooperative,
        metrics=pair_metrics(baseline.stats, cooperative.stats),
    )


@dataclass(frozen=True)
class CooperativePairedResult:
    baseline: RunResult
    cooperative: CooperativeRunResult
    metrics: PairedMetrics
