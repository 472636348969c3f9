#!/usr/bin/env python3
"""Resilient delivery: cooperating devices (§4).

The paper's future-work list names cooperation among a user's devices
as an availability problem. This example exercises that extension on
one challenging scenario — a commuter whose phone spends 90 % of the
time off the network in long, heavy-tailed outages. The user also owns
a well-cached laptop whose link fails independently; reads on the
phone borrow from the laptop's cache over the local ad-hoc network.

Run:  python examples/resilient_delivery.py
"""

from repro import PolicyConfig, run_paired
from repro.experiments.cooperation import CooperationConfig, run_cooperative_paired
from repro.units import DAY
from repro.workload import ArrivalConfig, OutageConfig, ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace

DAYS = 120


def main() -> None:
    config = ScenarioConfig(
        duration=DAYS * DAY,
        arrivals=ArrivalConfig(events_per_day=32.0),
        reads=ReadConfig(reads_per_day=2.0, read_count=8),
        outages=OutageConfig(
            downtime_fraction=0.9, outages_per_day=1.0, duration_sigma=1.0
        ),
    )
    trace = build_trace(config, seed=21)
    print(trace.describe())
    print()

    alone = run_paired(trace, PolicyConfig.unified())
    print(f"{'phone alone':28s} "
          f"waste {alone.metrics.waste_percent:5.1f} %  "
          f"loss {alone.metrics.loss_percent:5.1f} %")

    # Add a laptop whose link fails independently.
    for peers, label in ((1, "phone + laptop"), (2, "phone + laptop + tablet")):
        together = run_cooperative_paired(
            trace,
            PolicyConfig.unified(),
            CooperationConfig(n_peers=peers, peer_outage_fraction=0.5),
        )
        print(f"{label:28s} "
              f"waste {together.metrics.waste_percent:5.1f} %  "
              f"loss {together.metrics.loss_percent:5.1f} %   "
              f"(borrowed {together.cooperative.borrowed} from peer caches)")

    print()
    print("Long heavy-tailed outages exhaust a lone phone's prefetch buffer;")
    print("peer caches recover a large share of the reads the on-line")
    print("baseline would have served — the effect §4 anticipates.")


if __name__ == "__main__":
    main()
