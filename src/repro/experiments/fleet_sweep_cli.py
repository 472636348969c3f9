"""``repro-lasthop fleet sweep`` — grid campaigns over a results store.

Runs a :class:`~repro.fleet.sweep.FleetSweepConfig` — scenario knobs ×
policy variants × seeds — through the shared-workload shard executor and
appends every completed cell to an append-only sqlite store
(:mod:`repro.fleet.store`). Re-running against the same store with
``--resume`` skips completed cells and writes bit-identical rows, so a
killed campaign loses at most the cells in flight.

The grid is spelled either with flags::

    repro-lasthop fleet sweep --store results.sqlite \\
        --devices 1000 --axis threshold=0,0.5 --axis rate_sigma=0.25,0.75 \\
        --policies online,on_demand,unified,buffer:8 --seeds 0 1 2

or with a JSON grid file (``--grid``), which can also parameterize
policy presets::

    {
      "base": {"devices": 1000, "threshold": 0.5},
      "axes": [["devices", [1000, 4000]],
               ["volume_limits", [[4, 8], [8, 16]]]],
      "policies": ["online", "on_demand",
                   {"name": "u-delay", "preset": "unified",
                    "params": {"delay": 60.0}}],
      "seeds": [0, 1]
    }

The summary (``--format text|json``) is the per-family Pareto front of
waste vs. count-based loss; ``--dump-rows`` instead emits the sorted
canonical JSONL image of the campaign's rows (the byte-comparable form
the CI kill-and-resume smoke test diffs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.errors import ConfigurationError, ExportError
from repro.experiments.cli import add_faults_option, emit, parse_faults_option
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import SweepStore, dump_rows
from repro.fleet.sweep import (
    DEFAULT_POLICIES,
    FleetSweepConfig,
    parse_policy_token,
    policy_variant_from_spec,
    render_summary_json,
    render_summary_text,
    run_fleet_sweep,
    summarize_pareto,
)
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig


def add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Add the scenario flags every fleet CLI shares (None keeps the base's value)."""
    parser.add_argument("--devices", type=int, default=None,
                        help="fleet size (default 1000)")
    parser.add_argument("--days", type=float, default=None,
                        help="virtual run length in days (default 1)")
    parser.add_argument("--events-per-day", type=float, default=None,
                        help="mean notification arrivals per device-day")
    parser.add_argument("--reads-per-day", type=float, default=None,
                        help="mean user reads per device-day")
    parser.add_argument("--downtime", type=float, default=None,
                        help="target per-device downtime fraction in [0, 1]")
    parser.add_argument("--threshold", type=float, default=None,
                        help="subscription rank threshold (default 0)")


def check_run_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject out-of-range scenario and execution flags (exit 2)."""
    if args.devices is not None and args.devices < 1:
        parser.error("--devices must be >= 1")
    if args.days is not None and args.days <= 0:
        parser.error("--days must be positive")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one per CPU)")


def scenario_from_args(
    args: argparse.Namespace, base: FleetScenarioConfig
) -> FleetScenarioConfig:
    """``base`` with the :func:`add_scenario_options` flags given applied."""
    overrides: dict = {}
    if args.devices is not None:
        overrides["devices"] = args.devices
    if args.days is not None:
        overrides["duration"] = args.days * DAY
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    if args.events_per_day is not None:
        overrides["arrivals"] = ArrivalConfig(events_per_day=args.events_per_day)
    if args.reads_per_day is not None:
        overrides["reads"] = ReadConfig(reads_per_day=args.reads_per_day)
    if args.downtime is not None:
        overrides["outages"] = OutageConfig(downtime_fraction=args.downtime)
    return base.with_changes(**overrides) if overrides else base


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasthop fleet sweep",
        description=(
            "Run a (scenario x policy x seed) fleet campaign grid into an "
            "append-only, resumable results store."
        ),
    )
    parser.add_argument("--store", type=Path, required=True, metavar="PATH",
                        help="sqlite results store (created if missing)")
    parser.add_argument("--grid", type=Path, default=None, metavar="FILE",
                        help=(
                            "JSON grid file with base/axes/policies/seeds; "
                            "flags below override its base scenario knobs"
                        ))
    add_scenario_options(parser)
    # Grid axes.
    parser.add_argument("--axis", action="append", default=[],
                        metavar="FIELD=V1,V2,...",
                        help=(
                            "grid one FleetScenarioConfig field over JSON "
                            "values, e.g. --axis devices=1000,4000 or "
                            "--axis volume_limits=[4,8],[8,16]; repeatable, "
                            "later axes vary fastest"
                        ))
    parser.add_argument("--policies", type=str, default=None,
                        metavar="P1,P2,...",
                        help=(
                            "comma-separated policy presets (online, "
                            "on_demand, rate, unified, buffer:N); default "
                            f"{','.join(DEFAULT_POLICIES)}"
                        ))
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="campaign seeds (default: 0)")
    # Execution knobs.
    parser.add_argument("--shards", type=int, default=1,
                        help=(
                            "device partitions per cell (default 1); fixed "
                            "shards keep resumed rows bit-identical"
                        ))
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for shards (0 = one per CPU)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells the store already holds")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help=(
                            "stop after N newly computed cells (campaign "
                            "stays resumable)"
                        ))
    add_faults_option(parser)
    # Output.
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="summary format (default: text)")
    parser.add_argument("--dump-rows", action="store_true",
                        help=(
                            "emit the campaign's rows as sorted canonical "
                            "JSONL instead of the Pareto summary"
                        ))
    parser.add_argument("--output", type=Path, default=None,
                        help="write the summary to this file instead of stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")
    return parser


def _split_axis_values(raw: str) -> List[str]:
    """Split axis values on commas that are not inside JSON brackets.

    ``volume_limits=[4,8],[8,16]`` has two values, not four.
    """
    parts: List[str] = []
    depth = 0
    current = []
    for ch in raw:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part for part in (p.strip() for p in parts) if part]


def _freeze(value: object) -> object:
    """JSON lists become tuples so frozen scenario configs stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def parse_axis(raw: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse one ``--axis FIELD=V1,V2,...`` flag."""
    field_name, sep, rest = raw.partition("=")
    field_name = field_name.strip()
    if not sep or not field_name:
        raise ConfigurationError(
            f"axis must be FIELD=V1,V2,..., got {raw!r}"
        )
    values = []
    for token in _split_axis_values(rest):
        try:
            values.append(_freeze(json.loads(token)))
        except json.JSONDecodeError:
            raise ConfigurationError(
                f"axis {field_name!r} value {token!r} is not valid JSON"
            ) from None
    if not values:
        raise ConfigurationError(f"axis {field_name!r} has no values")
    return field_name, tuple(values)


def _base_from_grid(spec: dict) -> FleetScenarioConfig:
    base_spec = spec.get("base", {})
    if not isinstance(base_spec, dict):
        raise ConfigurationError("grid file 'base' must be an object")
    frozen = {key: _freeze(value) for key, value in base_spec.items()}
    try:
        return FleetScenarioConfig().with_changes(**frozen)
    except TypeError as exc:
        raise ConfigurationError(f"grid file 'base': {exc}") from exc


def _load_grid_file(path: Path) -> dict:
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read grid file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"grid file {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigurationError(f"grid file {path} must hold a JSON object")
    unknown = set(spec) - {"base", "axes", "policies", "seeds"}
    if unknown:
        raise ConfigurationError(
            f"unknown grid file keys: {', '.join(sorted(unknown))}"
        )
    return spec


def build_sweep_config(args: argparse.Namespace) -> FleetSweepConfig:
    grid_spec = _load_grid_file(args.grid) if args.grid is not None else {}

    base = scenario_from_args(args, _base_from_grid(grid_spec))

    axes: List[Tuple[str, Tuple[object, ...]]] = []
    for name, values in grid_spec.get("axes", []):
        axes.append((str(name), tuple(_freeze(v) for v in values)))
    for raw in args.axis:
        axes.append(parse_axis(raw))

    if args.policies is not None:
        policies = tuple(
            parse_policy_token(token)
            for token in args.policies.split(",") if token.strip()
        )
    elif "policies" in grid_spec:
        policies = tuple(
            policy_variant_from_spec(entry) for entry in grid_spec["policies"]
        )
    else:
        policies = tuple(parse_policy_token(name) for name in DEFAULT_POLICIES)

    if args.seeds is not None:
        seeds = tuple(args.seeds)
    elif "seeds" in grid_spec:
        seeds = tuple(int(seed) for seed in grid_spec["seeds"])
    else:
        seeds = (0,)

    return FleetSweepConfig(
        base=base, policies=policies, seeds=seeds, axes=tuple(axes)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    check_run_options(parser, args)
    if args.max_cells is not None and args.max_cells < 1:
        parser.error("--max-cells must be >= 1")

    fault_spec = parse_faults_option(parser, args.faults)
    obs.configure(None)

    try:
        config = replace(build_sweep_config(args), faults=fault_spec)
        config.validate()
    except ConfigurationError as error:
        parser.error(str(error))

    progress = None
    if not args.quiet:
        progress = lambda line: print(f"  {line}", file=sys.stderr)

    started = time.time()
    try:
        with SweepStore(args.store) as store:
            outcome = run_fleet_sweep(
                config,
                store,
                shards=args.shards,
                jobs=args.jobs,
                resume=args.resume,
                max_cells=args.max_cells,
                progress=progress,
            )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ExportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.time() - started

    if not args.quiet:
        print(
            f"  [sweep: {outcome.computed} cell(s) computed, "
            f"{outcome.skipped} skipped, {outcome.remaining} remaining, "
            f"{elapsed:.1f} s -> {args.store}]",
            file=sys.stderr,
        )

    if args.dump_rows:
        text = dump_rows(outcome.rows)
    else:
        summaries = summarize_pareto(outcome.config, outcome.rows)
        if args.format == "json":
            text = render_summary_json(summaries)
        else:
            text = render_summary_text(summaries)
    try:
        emit(text, args.output)
    except ExportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
