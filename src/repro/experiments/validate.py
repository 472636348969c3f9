"""Reproduction scorecard: every headline claim, one pass/fail line.

``repro-lasthop validate`` runs the quantitative statements the paper
makes in Sections 3–4 and reports measured-vs-expected for each. The
checks accept qualitative tolerances — the substrate is our simulator,
not the authors' — but each claim's *shape* (who wins, by what factor,
where the crossover falls) must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.experiments.figures.common import scenario
from repro.experiments.runner import run_paired, run_scenario
from repro.faults import FaultSpec
from repro.metrics.analytic import expected_overflow_waste
from repro.metrics.waste_loss import PairedMetrics, compute_waste
from repro.proxy.policies import PolicyConfig
from repro.units import DAY, HOUR, YEAR
from repro.workload.scenario import build_trace_cached


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one validated claim."""

    claim_id: str
    description: str
    expected: str
    measured: str
    passed: bool

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.claim_id}: {self.description}\n"
            f"       expected {self.expected}; measured {self.measured}"
        )


@dataclass(frozen=True)
class ValidateConfig:
    duration: float = YEAR
    seed: int = 0
    #: Fault regime every claim's runs see (None = fault-free).
    faults: Optional[FaultSpec] = None


def _paired(config: ValidateConfig, trace, policy: PolicyConfig) -> PairedMetrics:
    """Paired metrics of ``policy`` on ``trace`` under the config's faults."""
    return run_paired(trace, policy, faults=config.faults).metrics


def _online_waste(config: ValidateConfig, trace) -> float:
    """Waste of the on-line policy on ``trace`` under the config's faults."""
    online = run_scenario(trace, PolicyConfig.online(), faults=config.faults)
    return compute_waste(online.stats)


def _check_fig1_formula(config: ValidateConfig) -> ClaimResult:
    trace = build_trace_cached(
        scenario(duration=config.duration, user_frequency=1.0, max_per_read=4),
        seed=config.seed,
    )
    measured = _online_waste(config, trace)
    expected = expected_overflow_waste(1.0, 4, 32.0)
    return ClaimResult(
        claim_id="FIG1-88",
        description="'if Max is reduced to 4, then 88% of the forwarded "
        "messages are wasted' (uf=1, ef=32)",
        expected=f"{100 * expected:.1f} %",
        measured=f"{100 * measured:.1f} %",
        passed=abs(measured - expected) < 0.03,
    )


def _check_fig2_endpoints(config: ValidateConfig) -> ClaimResult:
    at_zero = _paired(
        config,
        build_trace_cached(
            scenario(duration=config.duration, outage_fraction=0.0), seed=config.seed
        ),
        PolicyConfig.on_demand(),
    ).loss
    at_full = _paired(
        config,
        build_trace_cached(
            scenario(duration=config.duration, outage_fraction=1.0), seed=config.seed
        ),
        PolicyConfig.on_demand(),
    ).loss
    return ClaimResult(
        claim_id="FIG2-ENDPOINTS",
        description="on-demand loss vanishes at perfect connectivity and at "
        "'the point of no connectivity'",
        expected="≈0 % at both endpoints",
        measured=f"{100 * at_zero:.1f} % / {100 * at_full:.1f} %",
        passed=at_zero < 0.02 and at_full == 0.0,
    )


def _check_fig3_sweet_spot(config: ValidateConfig) -> ClaimResult:
    trace = build_trace_cached(
        scenario(duration=config.duration, outage_fraction=0.7), seed=config.seed
    )
    worst_waste = 0.0
    worst_loss = 0.0
    for limit in (16, 64):
        metrics = _paired(config, trace, PolicyConfig.buffer(prefetch_limit=limit))
        worst_waste = max(worst_waste, metrics.waste)
        worst_loss = max(worst_loss, metrics.loss)
    # Messages still sitting in the device buffer when the run is cut off
    # count as unread; grant that end-of-run stock on shortened runs.
    # Loss suffers the same truncation artifact (messages in flight or
    # buffered at cutoff that the baseline read), so it gets the same
    # shrinking allowance; both bounds tighten toward ~2 % at paper scale.
    total_read_estimate = max(1.0, 16.0 * config.duration / DAY)
    stock_allowance = 64.0 / total_read_estimate
    waste_bound = 0.02 + stock_allowance
    loss_bound = 0.02 + stock_allowance
    return ClaimResult(
        claim_id="FIG3-SWEETSPOT",
        description="'Between 16 and 64, both waste and loss are below 1%' "
        "(70 % outage)",
        expected=f"< ~2 % each (+{100 * stock_allowance:.1f} % end-of-run stock)",
        measured=f"waste {100 * worst_waste:.1f} %, loss {100 * worst_loss:.1f} %",
        passed=worst_waste < waste_bound and worst_loss < loss_bound,
    )


def _check_fig3_plateau(config: ValidateConfig) -> ClaimResult:
    trace = build_trace_cached(
        scenario(duration=config.duration, outage_fraction=0.3), seed=config.seed
    )
    metrics = _paired(config, trace, PolicyConfig.buffer(prefetch_limit=65536))
    return ClaimResult(
        claim_id="FIG3-PLATEAU",
        description="'we expect half of all messages to be wasted in the "
        "worst case' (huge prefetch limit)",
        expected="≈50 %",
        measured=f"{100 * metrics.waste:.1f} %",
        passed=abs(metrics.waste - 0.5) < 0.05,
    )


def _check_fig4_crossover(config: ValidateConfig) -> ClaimResult:
    short = build_trace_cached(
        scenario(
            duration=config.duration,
            user_frequency=4.0,
            max_per_read=1_000_000,
            expiration_mean=256.0,
        ),
        seed=config.seed,
    )
    long = build_trace_cached(
        scenario(
            duration=config.duration,
            user_frequency=4.0,
            max_per_read=1_000_000,
            expiration_mean=262144.0,
        ),
        seed=config.seed,
    )
    waste_short = _online_waste(config, short)
    waste_long = _online_waste(config, long)
    return ClaimResult(
        claim_id="FIG4-CROSSOVER",
        description="'most short-lasting notifications typically expire "
        "before the user gets to them, but … waste disappears' at long "
        "expirations",
        expected="> 90 % at 256 s, < 15 % at 262144 s",
        measured=f"{100 * waste_short:.1f} % / {100 * waste_long:.1f} %",
        passed=waste_short > 0.9 and waste_long < 0.15,
    )


def _check_fig5_rise_and_fall(config: ValidateConfig) -> ClaimResult:
    def loss_at(expiration: float, user_frequency: float) -> float:
        trace = build_trace_cached(
            scenario(
                duration=config.duration,
                user_frequency=user_frequency,
                outage_fraction=0.95,
                expiration_mean=expiration,
            ),
            seed=config.seed,
        )
        return _paired(config, trace, PolicyConfig.on_demand()).loss

    short = loss_at(16.0, 2.0)
    mid = loss_at(65536.0, 2.0)
    tail_mid = loss_at(16384.0, 64.0)
    tail_long = loss_at(262144.0, 64.0)
    return ClaimResult(
        claim_id="FIG5-SHAPE",
        description="on-demand loss under 95 % outage: negligible at short "
        "expirations, high mid-range, 'starts dropping back down' at long "
        "expirations (visible at high user frequency)",
        expected="short ≈0, mid high, dropping at the tail",
        measured=(
            f"short {100 * short:.1f} %, mid {100 * mid:.1f} %, "
            f"uf=64 tail {100 * tail_mid:.1f} % → {100 * tail_long:.1f} %"
        ),
        passed=short < 0.1 and mid > 0.5 and tail_long < tail_mid,
    )


def _check_fig6_gap(config: ValidateConfig) -> ClaimResult:
    trace = build_trace_cached(
        scenario(
            duration=config.duration,
            outage_fraction=0.9,
            expiration_mean=5.7 * DAY,
        ),
        seed=config.seed,
    )
    policy = PolicyConfig.unified(expiration_threshold=8 * HOUR)
    metrics = _paired(config, trace, policy)
    return ClaimResult(
        claim_id="FIG6-GAP",
        description="'user frequency of 2/day results in an average "
        "interval between reads of 8 hours — an expiration threshold value "
        "that is within the gap of the 5.7-day curve'",
        expected="both waste and loss small at the 8 h threshold",
        measured=f"waste {100 * metrics.waste:.1f} %, loss {100 * metrics.loss:.1f} %",
        passed=metrics.waste < 0.15 and metrics.loss < 0.10,
    )


def _check_conclusion(config: ValidateConfig) -> ClaimResult:
    worst = 0.0
    for outage in (0.1, 0.5, 0.9):
        trace = build_trace_cached(
            scenario(duration=config.duration, outage_fraction=outage),
            seed=config.seed,
        )
        metrics = _paired(config, trace, PolicyConfig.unified())
        worst = max(worst, metrics.waste, metrics.loss)
    return ClaimResult(
        claim_id="CONCLUSION",
        description="'vain traffic on the last hop can be kept to a few "
        "percentage points of the overall traffic while the quality of "
        "service remains high' (unified algorithm, overflow workload)",
        expected="waste and loss each < ~5 % at 10/50/90 % outage",
        measured=f"worst {100 * worst:.1f} %",
        passed=worst < 0.05,
    )


CHECKS: List[Callable[[ValidateConfig], ClaimResult]] = [
    _check_fig1_formula,
    _check_fig2_endpoints,
    _check_fig3_sweet_spot,
    _check_fig3_plateau,
    _check_fig4_crossover,
    _check_fig5_rise_and_fall,
    _check_fig6_gap,
    _check_conclusion,
]


def run(
    config: ValidateConfig = ValidateConfig(),
    progress: Optional[Callable[[str], None]] = None,
) -> List[ClaimResult]:
    """Execute every claim check; returns the scorecard."""
    results = []
    for check in CHECKS:
        result = check(config)
        results.append(result)
        if progress is not None:
            progress(result.render().splitlines()[0])
    return results


def render(results: List[ClaimResult]) -> str:
    passed = sum(r.passed for r in results)
    lines = [result.render() for result in results]
    lines.append(f"\n{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
