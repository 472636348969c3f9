"""Command-line entry point: ``repro-lasthop``.

Regenerates any of the paper's figures (or all of them) as plain-text
tables, CSV, or JSON, and runs the reproduction scorecard. Full one-year
runs take minutes per figure; ``--days`` trims the virtual duration for
quick looks.

Examples::

    repro-lasthop list
    repro-lasthop fig1
    repro-lasthop fig3 --days 90 --seeds 0 1 2
    repro-lasthop fig6 --format csv --output fig6.csv
    repro-lasthop validate --days 120
    repro-lasthop all --days 30
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.errors import ConfigurationError, ExportError
from repro.experiments import validate as validate_module
from repro.experiments.ascii_plot import MARKERS, plot_table_columns
from repro.experiments.export import export_tables
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import Table, obs_summary_table
from repro.faults import PRESETS, FaultSpec
from repro.units import DAY


def _figure_config(module, days: Optional[float], seeds: Optional[List[int]]):
    """Build the module's config dataclass with CLI overrides applied."""
    config_types = [
        value
        for name, value in vars(module).items()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and name.endswith("Config")
        and value.__module__ == module.__name__
    ]
    if len(config_types) != 1:
        raise RuntimeError(f"figure module {module.__name__} must define one Config")
    overrides = {}
    if days is not None:
        overrides["duration"] = days * DAY
    if seeds is not None:
        overrides["seeds"] = tuple(seeds)
    return config_types[0](**overrides)


def _try_plot(table: Table) -> Optional[str]:
    """Best-effort ASCII chart of a figure table (None if not plottable)."""
    try:
        xs = [float(v) for v in table.column(table.headers[0])]
    except (ValueError, TypeError):
        return None
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    numeric_columns = table.headers[1 : 1 + len(MARKERS)]
    log_x = min(xs) > 0 and max(xs) / min(xs) >= 100
    try:
        return plot_table_columns(
            table, table.headers[0], curve_columns=numeric_columns, log_x=log_x
        )
    except (ValueError, TypeError):
        return None


def run_figure(
    name: str,
    days: Optional[float] = None,
    seeds: Optional[List[int]] = None,
    quiet: bool = False,
    fmt: str = "text",
    with_plots: bool = False,
    jobs: Optional[int] = 1,
    faults: Optional[FaultSpec] = None,
) -> str:
    """Run one figure by name; returns the rendered tables.

    ``jobs`` fans the figure's measurement grid across that many worker
    processes (``0``/``None`` = one per CPU). Output is identical for
    any value — results merge deterministically in grid order.
    ``faults`` (the ``--faults`` spec) goes into the figure's config.
    """
    module = ALL_FIGURES[name]
    config = dataclasses.replace(_figure_config(module, days, seeds), faults=faults)
    progress = None if quiet else lambda line: print(f"  {line}", file=sys.stderr)
    started = time.time()
    result = module.run(config, progress=progress, jobs=jobs)
    tables = [result] if isinstance(result, Table) else list(result)
    rendered = export_tables(tables, fmt)
    if with_plots and fmt == "text":
        charts = [chart for chart in map(_try_plot, tables) if chart is not None]
        if charts:
            rendered = rendered + "\n\n" + "\n\n".join(charts)
    if not quiet:
        print(f"  [{name} done in {time.time() - started:.1f} s]", file=sys.stderr)
    return rendered


def run_validation(
    days: Optional[float], quiet: bool, faults: Optional[FaultSpec] = None
) -> str:
    """Run the reproduction scorecard under ``faults``."""
    config = validate_module.ValidateConfig(faults=faults)
    if days is not None:
        config = dataclasses.replace(config, duration=days * DAY)
    progress = None if quiet else lambda line: print(f"  {line}", file=sys.stderr)
    return validate_module.render(validate_module.run(config, progress=progress))


def main(argv: Optional[List[str]] = None) -> int:
    # `fleet` is a subcommand with its own flag set; dispatch before the
    # figure parser so its flags never collide with the ones below.
    args_list = sys.argv[1:] if argv is None else list(argv)
    if args_list and args_list[0] == "fleet":
        from repro.experiments.fleet_cli import main as fleet_main

        return fleet_main(args_list[1:])

    parser = argparse.ArgumentParser(
        prog="repro-lasthop",
        description=(
            "Regenerate the evaluation figures of 'The Last Hop of Global "
            "Notification Delivery to Mobile Users' (ICDCS 2005)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(ALL_FIGURES) + ["all", "list", "validate"],
        help=(
            "figure id to regenerate, 'all', 'validate' for the claim "
            "scorecard, or 'list' to enumerate"
        ),
    )
    parser.add_argument(
        "--days",
        type=float,
        default=None,
        help="virtual run length in days (default: the paper's one year)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="random seeds to average over (default: 0)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "csv", "json", "jsonl"],
        default="text",
        help="output format for figure tables",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write output to this file instead of stdout",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the figure's measurement grid "
            "(0 = one per CPU; results are identical for any value)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "record proxy delivery-path trace records (forward/retract/"
            "expire/…) into a bounded ring buffer and export them as "
            "JSONL to FILE when the run finishes; implies --jobs 1 "
            "(worker-process ring buffers are not collected)"
        ),
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"ring-buffer capacity for --trace-out (default "
            f"{obs.DEFAULT_CAPACITY}; older records are dropped first)"
        ),
    )
    parser.add_argument(
        "--audit",
        type=int,
        nargs="?",
        const=1,
        default=None,
        metavar="N",
        help=(
            "audit proxy invariants during the run, sampled every N "
            "proxy transitions (bare --audit audits every transition); "
            "a violation aborts the run with the trailing trace records "
            "attached"
        ),
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "collect per-phase timing/counter probes (trace-build, "
            "baseline, variant) and append an observability "
            "summary table to the output; implies --jobs 1 "
            "(worker-process probes are not collected)"
        ),
    )
    add_faults_option(parser)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append ASCII charts of the tables (text format only)",
    )
    args = parser.parse_args(argv)

    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one per CPU)")

    fault_spec = parse_faults_option(parser, args.faults)

    if args.audit is not None and args.audit < 1:
        parser.error("--audit interval must be >= 1")
    if args.trace_capacity is not None:
        if args.trace_out is None:
            parser.error("--trace-capacity requires --trace-out")
        if args.trace_capacity < 1:
            parser.error("--trace-capacity must be >= 1")
    if (args.trace_out is not None or args.obs) and args.jobs != 1:
        flag = "--trace-out" if args.trace_out is not None else "--obs"
        print(
            f"warning: {flag} collects from this process only; forcing "
            "--jobs 1 so what worker processes record is not lost",
            file=sys.stderr,
        )
        args.jobs = 1
    obs_config = None
    if args.audit is not None or args.trace_out is not None or args.obs:
        capacity = None
        if args.trace_out is not None:
            capacity = args.trace_capacity or obs.DEFAULT_CAPACITY
        obs_config = obs.ObsConfig(
            audit_interval=args.audit,
            trace_capacity=capacity,
            probes=args.obs,
        )
    obs.configure(obs_config)

    if args.figure == "list":
        for name, module in sorted(ALL_FIGURES.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        print(f"{'validate':22s} Reproduction scorecard: headline claims pass/fail.")
        print(f"{'fleet':22s} Fleet campaign: one proxy, thousands of devices "
              "(see 'fleet --help').")
        return 0

    if args.figure == "validate":
        try:
            output = run_validation(args.days, args.quiet, fault_spec)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        failures = output.count("[FAIL]")
        try:
            epilogue = _obs_epilogue(args, fmt="text")
            if epilogue:
                output = output + "\n\n" + epilogue
            emit(output, args.output)
        except ExportError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 1 if failures else 0

    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    try:
        chunks = [
            run_figure(name, days=args.days, seeds=args.seeds, quiet=args.quiet,
                       fmt=args.format, with_plots=args.plot, jobs=args.jobs,
                       faults=fault_spec)
            for name in names
        ]
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except obs.InvariantViolation as error:
        # The audit already attached the violated invariants and the
        # trailing trace records to the message; the ring buffer still
        # holds them, so export it for post-mortem before bailing.
        print(f"invariant audit failed:\n{error}", file=sys.stderr)
        try:
            _obs_epilogue(args, fmt=args.format)
        except ExportError as export_error:  # post-mortem export best-effort
            print(f"error: {export_error}", file=sys.stderr)
        return 2
    try:
        epilogue = _obs_epilogue(args, fmt=args.format)
        if epilogue:
            chunks.append(epilogue)
        emit("\n\n".join(chunks), args.output)
    except ExportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _obs_epilogue(args, fmt: str) -> Optional[str]:
    """Export ``--trace-out`` and render the ``--obs`` summary.

    Returns the rendered observability summary (to append to the main
    output), or None when ``--obs`` was not requested.
    """
    ctx = obs.active()
    if args.trace_out is not None and ctx is not None and ctx.recorder is not None:
        written = ctx.recorder.export_jsonl(args.trace_out)
        if not args.quiet:
            held = f"{written} records"
            if ctx.recorder.dropped:
                held += f" ({ctx.recorder.dropped} older ones dropped by the ring)"
            print(f"  [trace: {held} -> {args.trace_out}]", file=sys.stderr)
    if args.obs:
        return export_tables([obs_summary_table(obs.summarize_obs())], fmt)
    return None


def add_faults_option(parser: argparse.ArgumentParser) -> None:
    """Add the ``--faults SPEC`` option every campaign CLI shares."""
    parser.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic last-hop faults: a preset name "
            f"({', '.join(sorted(PRESETS))}) or a JSON object of "
            "FaultSpec fields (e.g. '{\"loss_rate\": 0.1}'); 'none' and "
            "an omitted flag are byte-identical"
        ),
    )


def parse_faults_option(
    parser: argparse.ArgumentParser, text: Optional[str]
) -> Optional[FaultSpec]:
    """The spec ``--faults`` names, or None when omitted or null.

    A null spec normalizes to None so ``--faults none`` keys cells and
    fills configs exactly like omitting the flag.
    """
    if text is None:
        return None
    try:
        spec = FaultSpec.parse(text)
    except ConfigurationError as error:
        parser.error(f"--faults: {error}")
    return None if spec.is_null else spec


def emit(text: str, output: Optional[Path]) -> None:
    """Print ``text`` or write it to ``output``.

    An unwritable ``output`` raises a typed ExportError, so a CLI that
    ran for an hour ends on its clean error path, not a traceback.
    """
    if output is None:
        print(text)
        return
    try:
        output.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot write output to {output}: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
