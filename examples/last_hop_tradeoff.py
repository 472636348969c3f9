#!/usr/bin/env python3
"""The waste/loss trade-off across the whole policy spectrum (§3).

Sweeps the last-hop forwarding policy — from always-push to never-push,
through rate-based and buffer-based prefetching at several limits — on
one frozen trace, and prints the trade-off table the paper's evaluation
is about.

Run:  python examples/last_hop_tradeoff.py
"""

from repro import PolicyConfig, ScenarioConfig, build_trace, run_paired
from repro.units import DAY
from repro.workload import ArrivalConfig, OutageConfig, ReadConfig


def main() -> None:
    config = ScenarioConfig(
        duration=120 * DAY,
        arrivals=ArrivalConfig(events_per_day=32.0),
        reads=ReadConfig(reads_per_day=2.0, read_count=8),
        outages=OutageConfig(
            downtime_fraction=0.5, outages_per_day=4.0, duration_sigma=0.5
        ),
    )
    trace = build_trace(config, seed=1)
    print(trace.describe())
    print()

    spectrum = [
        ("on-line", PolicyConfig.online()),
        ("buffer limit 65536", PolicyConfig.buffer(prefetch_limit=65536)),
        ("buffer limit 256", PolicyConfig.buffer(prefetch_limit=256)),
        ("buffer limit 64", PolicyConfig.buffer(prefetch_limit=64)),
        ("buffer limit 16", PolicyConfig.buffer(prefetch_limit=16)),
        ("buffer limit 4", PolicyConfig.buffer(prefetch_limit=4)),
        ("buffer limit 1", PolicyConfig.buffer(prefetch_limit=1)),
        ("rate-based", PolicyConfig.rate()),
        ("unified (adaptive)", PolicyConfig.unified()),
        ("pure on-demand", PolicyConfig.on_demand()),
    ]
    print(f"{'policy':22s} {'waste %':>8s} {'loss %':>8s} {'forwarded':>10s} "
          f"{'kB sent':>8s}")
    for label, policy in spectrum:
        result = run_paired(trace, policy)
        stats = result.policy.stats
        print(
            f"{label:22s} {result.metrics.waste_percent:8.1f} "
            f"{result.metrics.loss_percent:8.1f} {stats.forwarded:10d} "
            f"{stats.bytes_sent / 1024:8.0f}"
        )


if __name__ == "__main__":
    main()
