"""Ablation (§4 future work) — multi-device cache cooperation.

"Their interaction, perhaps with the aid of an ad-hoc network, has the
potential for reducing both loss and waste by allowing one device to
use the cache of another."

A phone with a badly connected wide-area link (90 % downtime in long,
heavy-tailed episodes — the regime where a prefetch buffer exhausts
mid-outage) reads alone, or with the help of one or two peer devices
whose links fail independently. Cooperative reads draw on every
reachable cache, so the group's loss falls as peers are added; the
id-level waste falls too, because a notification prefetched to any
device can still be read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.experiments.cooperation import (
    CooperationConfig,
    run_cooperative_paired,
)
from repro.experiments.figures.common import (
    EVENT_FREQUENCY,
    measure_grid,
    percent,
    scenario,
)
from repro.experiments.report import Table
from repro.experiments.runner import run_paired
from repro.faults import FaultSpec
from repro.proxy.policies import PolicyConfig
from repro.units import YEAR
from repro.workload.outages import OutageConfig
from repro.workload.scenario import build_trace_cached


@dataclass(frozen=True)
class AblationCooperationConfig:
    duration: float = YEAR
    event_frequency: float = EVENT_FREQUENCY
    user_frequency: float = 2.0
    max_per_read: int = 8
    reader_outage_fraction: float = 0.9
    #: The reader's outages are long and heavy-tailed (one episode per
    #: day in expectation, lognormal sigma 1), unlike the figure suite's
    #: fine-grained process — this is precisely the regime where a
    #: single device's prefetch buffer runs dry mid-outage.
    reader_outages_per_day: float = 1.0
    reader_outage_sigma: float = 1.0
    peer_outage_fraction: float = 0.5
    peer_counts: Tuple[int, ...] = (0, 1, 2)
    adhoc_availabilities: Tuple[float, ...] = (1.0, 0.5)
    seeds: Tuple[int, ...] = (0,)
    faults: Optional[FaultSpec] = None


@dataclass(frozen=True)
class CooperationPoint:
    waste: float
    loss: float
    borrowed: float


def measure_point(
    config: AblationCooperationConfig, n_peers: int, adhoc_availability: float
) -> CooperationPoint:
    wastes: List[float] = []
    losses: List[float] = []
    borrowed: List[float] = []
    for seed in config.seeds:
        base = scenario(
            duration=config.duration,
            event_frequency=config.event_frequency,
            user_frequency=config.user_frequency,
            max_per_read=config.max_per_read,
        )
        base = replace(
            base,
            outages=OutageConfig(
                downtime_fraction=config.reader_outage_fraction,
                outages_per_day=config.reader_outages_per_day,
                duration_sigma=config.reader_outage_sigma,
            ),
        )
        trace = build_trace_cached(base, seed=seed)
        policy = PolicyConfig.unified()
        if n_peers == 0:
            result = run_paired(trace, policy, faults=config.faults)
            wastes.append(result.metrics.waste)
            losses.append(result.metrics.loss)
            borrowed.append(0.0)
        else:
            cooperative = run_cooperative_paired(
                trace,
                policy,
                cooperation=CooperationConfig(
                    n_peers=n_peers,
                    peer_outage_fraction=config.peer_outage_fraction,
                    adhoc_availability=adhoc_availability,
                ),
                faults=config.faults,
            )
            wastes.append(cooperative.metrics.waste)
            losses.append(cooperative.metrics.loss)
            borrowed.append(float(cooperative.cooperative.borrowed))
    count = len(wastes)
    return CooperationPoint(
        waste=sum(wastes) / count,
        loss=sum(losses) / count,
        borrowed=sum(borrowed) / count,
    )


def _grid(config: AblationCooperationConfig) -> List[Tuple[int, float]]:
    """The (peers, ad-hoc availability) cells, in table order."""
    cells: List[Tuple[int, float]] = []
    for n_peers in config.peer_counts:
        availabilities = (1.0,) if n_peers == 0 else config.adhoc_availabilities
        for adhoc in availabilities:
            cells.append((n_peers, adhoc))
    return cells


def run(
    config: AblationCooperationConfig = AblationCooperationConfig(),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    table = Table(
        title=(
            "Ablation: multi-device cache cooperation "
            f"(reader outage {percent(config.reader_outage_fraction):.0f} %, "
            f"peer outage {percent(config.peer_outage_fraction):.0f} %, "
            "unified policy)"
        ),
        headers=["peers", "adhoc", "waste_%", "loss_%", "borrowed"],
        notes=[
            "borrowed: notifications served to the user from a peer's cache",
            "waste/loss are group-level and id-based",
        ],
    )
    cells = _grid(config)
    results = iter(
        measure_grid(
            measure_point,
            [(config, n_peers, adhoc) for n_peers, adhoc in cells],
            jobs=jobs,
        )
    )
    for n_peers, adhoc in cells:
        point = next(results)
        table.add_row(
            n_peers, adhoc, percent(point.waste), percent(point.loss),
            point.borrowed,
        )
        if progress is not None:
            progress(
                f"ablation-cooperation peers={n_peers} adhoc={adhoc:g}: "
                f"loss {percent(point.loss):.1f} % "
                f"borrowed {point.borrowed:.0f}"
            )
    return table
