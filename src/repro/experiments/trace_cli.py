"""Trace tooling CLI: ``repro-trace``.

Generates, inspects, and replays frozen traces — the unit of
reproducibility. A saved trace replays bit-for-bit under any policy::

    repro-trace generate storm.json --days 120 --outage 0.9 --seed 7
    repro-trace info storm.json
    repro-trace run storm.json --policy unified
    repro-trace run storm.json --policy buffer:16 --threshold 2.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError, ExportError
from repro.experiments.runner import run_paired
from repro.proxy.policies import PolicyConfig
from repro.sim.trace_io import load_trace, save_trace
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.reads import ReadConfig
from repro.workload.scenario import ScenarioConfig, build_trace


def parse_policy(spec: str) -> PolicyConfig:
    """Parse a policy spec: online, on-demand, rate, unified, buffer:N,
    or unified:THRESHOLD_SECONDS."""
    name, _, argument = spec.partition(":")
    if name == "online":
        return PolicyConfig.online()
    if name == "on-demand":
        return PolicyConfig.on_demand()
    if name == "rate":
        return PolicyConfig.rate()
    if name == "buffer" and not argument:
        raise ConfigurationError("buffer policy needs a limit: buffer:16")
    try:
        if name == "unified":
            if argument:
                return PolicyConfig.unified(expiration_threshold=float(argument))
            return PolicyConfig.unified()
        if name == "buffer":
            return PolicyConfig.buffer(prefetch_limit=int(argument))
    except ValueError:
        raise ConfigurationError(
            f"policy {spec!r}: {argument!r} is not a number"
        ) from None
    raise ConfigurationError(
        f"unknown policy {spec!r} (use online, on-demand, rate, unified[:T], buffer:N)"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        duration=args.days * DAY,
        seed=args.seed,
        arrivals=ArrivalConfig(
            events_per_day=args.events,
            expiring_fraction=0.0 if args.expiration is None else 1.0,
            expiration_mean=args.expiration or 1.0,
        ),
        reads=ReadConfig(reads_per_day=args.reads, read_count=args.max),
        outages=OutageConfig(
            downtime_fraction=args.outage,
            outages_per_day=args.outages_per_day,
            duration_sigma=args.outage_sigma,
        ),
        rank_changes=RankChangeConfig(drop_fraction=args.drop_fraction),
        threshold=args.threshold,
    )
    trace = build_trace(config)
    save_trace(trace, args.path)
    print(f"wrote {args.path}: {trace.describe()}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    print(trace.describe())
    for key, value in sorted(trace.metadata.items()):
        print(f"  {key}: {value}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    policy = parse_policy(args.policy)
    result = run_paired(trace, policy, threshold=args.threshold)
    print(f"policy   : {policy.describe()}")
    print(f"trace    : {trace.describe()}")
    print(f"metrics  : {result.metrics.describe()}")
    print()
    print(result.policy.stats.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Generate, inspect, and replay frozen traces."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate and save a trace")
    generate.add_argument("path", type=Path)
    generate.add_argument("--days", type=float, default=365.0)
    generate.add_argument("--events", type=float, default=32.0,
                          help="event frequency per day")
    generate.add_argument("--reads", type=float, default=2.0,
                          help="user frequency per day")
    generate.add_argument("--max", type=int, default=8, help="Max per read")
    generate.add_argument("--outage", type=float, default=0.0,
                          help="cumulative downtime fraction")
    generate.add_argument("--outages-per-day", type=float, default=4.0)
    generate.add_argument("--outage-sigma", type=float, default=0.5)
    generate.add_argument("--expiration", type=float, default=None,
                          help="mean lifetime in seconds (default: no expiry)")
    generate.add_argument("--drop-fraction", type=float, default=0.0,
                          help="fraction of events later demoted")
    generate.add_argument("--threshold", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=cmd_generate)

    info = commands.add_parser("info", help="describe a saved trace")
    info.add_argument("path", type=Path)
    info.set_defaults(handler=cmd_info)

    run = commands.add_parser("run", help="paired-run a policy on a saved trace")
    run.add_argument("path", type=Path)
    run.add_argument("--policy", default="unified",
                     help="online | on-demand | rate | unified[:T] | buffer:N")
    run.add_argument("--threshold", type=float, default=0.0)
    run.set_defaults(handler=cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, ExportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
