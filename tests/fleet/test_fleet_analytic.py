"""The fleet answers to the paper's overflow formula (§3.2, Fig. 1).

A homogeneous fleet — every sigma 0, one volume limit, no outages — is
N i.i.d. replicas of the paper's single-device setting, so under the
on-line policy its waste estimates ``1 − uf·Max/ef``
(:func:`~repro.metrics.analytic.expected_overflow_waste`) with an
interval that shrinks as 1/√N. The points are Fig. 1's off the balance
line (uf·Max ≠ ef). On the line itself (uf 2, Max 16) a finite run
only approaches the formula's 0 slowly, and the fleet (whose read
generator draws Poisson daily read counts) and the single-device runner
disagree there, so that point is left out.

Each point runs ``SEEDS`` independent fleets; the check is
``|mean − formula| ≤ 3 · (95 % CI half-width) + BIAS``.
"""

import statistics

import pytest

from repro.fleet import FleetScenarioConfig, run_fleet
from repro.metrics.analytic import expected_overflow_waste
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig

EVENT_FREQUENCY = 32.0
DEVICES = 150
DAYS = 14
SEEDS = (0, 1, 2, 3, 4)
#: Two-sided 95 % Student t quantile for len(SEEDS) - 1 = 4 degrees of
#: freedom.
T_95 = 2.776
#: The model's documented bias: every device starts with nothing held,
#: so in its first days a read can find fewer than Max notifications
#: and the fleet reads a few per device less than ``uf·Max·days``. The
#: shortfall is fixed per device, so it lifts waste by a share that
#: shrinks with the run. Measured at these sizes (mean − formula, in
#: points): +0.04 (uf 1, Max 4), +0.69 (2, 8), +0.39 (4, 4); at 30 days
#: +0.08, +0.46, +0.19.
BIAS = 0.01


def _fleet_waste(user_frequency: float, max_per_read: int, seed: int) -> float:
    config = FleetScenarioConfig(
        devices=DEVICES,
        duration=DAYS * DAY,
        seed=seed,
        arrivals=ArrivalConfig(events_per_day=EVENT_FREQUENCY),
        reads=ReadConfig(reads_per_day=user_frequency, read_count=max_per_read),
        outages=OutageConfig(downtime_fraction=0.0),
        rate_sigma=0.0,
        read_rate_sigma=0.0,
        downtime_sigma=0.0,
        volume_limits=(max_per_read,),
    )
    return run_fleet(config, PolicyConfig.online()).waste


@pytest.mark.parametrize(
    "user_frequency, max_per_read", [(1.0, 4), (2.0, 8), (4.0, 4)]
)
def test_homogeneous_fleet_matches_the_overflow_formula(user_frequency, max_per_read):
    wastes = [_fleet_waste(user_frequency, max_per_read, seed) for seed in SEEDS]
    mean = statistics.mean(wastes)
    half_width = T_95 * statistics.stdev(wastes) / len(wastes) ** 0.5
    formula = expected_overflow_waste(user_frequency, max_per_read, EVENT_FREQUENCY)
    assert abs(mean - formula) <= 3 * half_width + BIAS, (
        f"uf={user_frequency:g} Max={max_per_read}: fleet waste {mean:.4f} "
        f"± {half_width:.4f} vs formula {formula:.4f}"
    )
