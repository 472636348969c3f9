"""``repro-lasthop fleet`` — run a fleet campaign from the command line.

One proxy process serving thousands of heterogeneous devices, optionally
sharded across worker processes. Results are invariant to ``--shards``
and ``--jobs`` (integer metrics bit-identical, float sums up to
reassociation), so the knobs are pure throughput levers.

Examples::

    repro-lasthop fleet --devices 10000
    repro-lasthop fleet --devices 100000 --shards 8 --jobs 4
    repro-lasthop fleet --devices 10000 --faults lossy --audit
    repro-lasthop fleet --devices 1000 --policy rate --days 7 --format json

``repro-lasthop fleet sweep`` runs whole campaign grids into a results
store; see :mod:`repro.experiments.fleet_sweep_cli`. ``repro-lasthop
fleet tune`` adaptively searches one policy preset's parameter space
through the same store; see :mod:`repro.experiments.fleet_tune_cli`.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.errors import ConfigurationError, ExportError
from repro.experiments.cli import add_faults_option, emit, parse_faults_option
from repro.experiments.fleet_sweep_cli import (
    add_scenario_options,
    check_run_options,
    scenario_from_args,
)
from repro.fleet import FleetScenarioConfig, run_fleet
from repro.fleet.sweep import SWEEP_POLICY_PRESETS
from repro.units import DAY

#: Sentinel for bare ``--profile`` (summary to stderr, no stats file).
_PROFILE_STDERR = Path("-")

#: Functions shown in the ``--profile`` cumulative-time summary.
_PROFILE_TOP_N = 25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasthop fleet",
        description=(
            "Run one last-hop proxy against a whole fleet of simulated "
            "devices; metrics stream into O(shards) accumulators."
        ),
    )
    add_scenario_options(parser)
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--policy", choices=sorted(SWEEP_POLICY_PRESETS),
                        default="unified",
                        help="proxy policy preset (default: unified)")
    parser.add_argument("--shards", type=int, default=1,
                        help="device partitions (default 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for shards (0 = one per CPU)")
    add_faults_option(parser)
    parser.add_argument("--audit", type=int, nargs="?", const=1, default=None,
                        metavar="N",
                        help=(
                            "audit proxy invariants every N transitions "
                            "(bare --audit audits every one)"
                        ))
    parser.add_argument("--profile", type=Path, nargs="?", const=_PROFILE_STDERR,
                        default=None, metavar="FILE",
                        help=(
                            "profile the campaign with cProfile; with FILE, "
                            "dump raw stats there (for snakeviz/pstats), and "
                            "always print the top functions by cumulative "
                            "time to stderr. Profiles the parent process "
                            "only — use --jobs 1 for full coverage"
                        ))
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default: text)")
    parser.add_argument("--no-timing", action="store_true",
                        help=(
                            "omit wall-clock fields from the output so two "
                            "runs of the same campaign compare byte-for-byte"
                        ))
    parser.add_argument("--output", type=Path, default=None,
                        help="write the summary to this file instead of stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")
    return parser


def _render_json(result, elapsed: Optional[float]) -> str:
    acc = result.accumulator
    payload = {
        "devices": acc.devices,
        "shards": result.shards,
        "jobs": result.jobs,
        "events_processed": acc.events_processed,
        "forwarded": acc.forwarded,
        "messages_read": acc.messages_read,
        "wasted": acc.wasted,
        "waste": acc.waste,
        "mean_read_age": acc.mean_read_age,
        "read_age_p50": acc.read_delay_sketch.percentile(0.5),
        "read_age_p95": acc.read_delay_sketch.percentile(0.95),
        "read_age_p99": acc.read_delay_sketch.percentile(0.99),
        "final_proxy_queued": acc.final_proxy_queued,
        "final_device_queued": acc.final_device_queued,
        "counters": {k: v for k, v in sorted(acc.counters.items())},
    }
    if elapsed is not None:
        payload["elapsed_seconds"] = round(elapsed, 3)
    return json.dumps(payload, indent=2, sort_keys=True)


def _report_profile(profiler: cProfile.Profile, target: Path) -> None:
    """Print the cumulative-time summary, then write the stats file if
    one was asked for; OSError becomes a typed ExportError."""
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    stats.print_stats(_PROFILE_TOP_N)
    if target == _PROFILE_STDERR:
        return
    try:
        profiler.dump_stats(target)
    except OSError as exc:
        raise ExportError(f"cannot write profile to {target}: {exc}") from exc
    print(f"  [profile stats written to {target}]", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    # `sweep`/`tune` are subcommands with their own flag sets; dispatch
    # before the single-campaign parser so their flags never collide.
    args_list = sys.argv[1:] if argv is None else list(argv)
    if args_list and args_list[0] == "sweep":
        from repro.experiments.fleet_sweep_cli import main as sweep_main

        return sweep_main(args_list[1:])
    if args_list and args_list[0] == "tune":
        from repro.experiments.fleet_tune_cli import main as tune_main

        return tune_main(args_list[1:])

    parser = build_parser()
    args = parser.parse_args(args_list)
    check_run_options(parser, args)
    if args.audit is not None and args.audit < 1:
        parser.error("--audit interval must be >= 1")

    fault_spec = parse_faults_option(parser, args.faults)
    obs.configure(
        obs.ObsConfig(audit_interval=args.audit) if args.audit is not None else None
    )

    try:
        config = scenario_from_args(args, FleetScenarioConfig(seed=args.seed))
        config.validate()
    except ConfigurationError as error:
        parser.error(str(error))

    policy = SWEEP_POLICY_PRESETS[args.policy]()
    profiler = cProfile.Profile() if args.profile is not None else None
    started = time.time()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = run_fleet(
                config,
                policy,
                shards=args.shards,
                jobs=args.jobs,
                faults=fault_spec,
            )
        finally:
            if profiler is not None:
                profiler.disable()
    except obs.InvariantViolation as error:
        print(f"invariant audit failed:\n{error}", file=sys.stderr)
        return 2
    elapsed = time.time() - started

    if not args.quiet:
        rate = config.devices / elapsed if elapsed > 0 else float("inf")
        print(
            f"  [fleet: {config.devices} devices x "
            f"{config.duration / DAY:g} day(s), "
            f"{args.shards} shard(s), policy={args.policy}, "
            f"{elapsed:.1f} s = {rate:,.0f} devices/s]",
            file=sys.stderr,
        )

    if args.format == "json":
        text = _render_json(result, None if args.no_timing else elapsed)
    else:
        text = result.describe()
    # The summary goes out first: the campaign is done, and neither an
    # unwritable --output nor an unwritable --profile file may cost the
    # other artifact.
    status = 0
    try:
        emit(text, args.output)
    except ExportError as error:
        print(f"error: {error}", file=sys.stderr)
        status = 2
    if profiler is not None:
        try:
            _report_profile(profiler, args.profile)
        except ExportError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
