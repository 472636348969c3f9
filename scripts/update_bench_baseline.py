#!/usr/bin/env python3
"""Re-run the benchmark suite and refresh ``benchmarks/BENCH_core.json``.

The committed baseline is the perf trajectory ``scripts/bench_compare.py``
gates CI against. After an intentional performance change, regenerate it
with::

    python scripts/update_bench_baseline.py             # micro + fleet
    python scripts/update_bench_baseline.py -k micro    # subset
    python scripts/update_bench_baseline.py --all       # every benchmark

The script runs pytest with ``--benchmark-only`` (the conftest hook
emits the JSON), prints the comparison against the previous baseline for
the record, then moves the fresh file into place. Commit the updated
``benchmarks/BENCH_core.json`` together with the change that motivated
it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "BENCH_core.json"

#: Default selection mirrors the CI bench-smoke job.
DEFAULT_SELECT = "micro or fleet"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k",
        dest="select",
        default=DEFAULT_SELECT,
        help=f"pytest -k expression selecting benchmarks (default: {DEFAULT_SELECT!r})",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run every benchmark module (overrides -k)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="run and compare, but leave the committed baseline untouched",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tmp:
        fresh = Path(tmp) / "BENCH_core.json"
        env = dict(os.environ)
        env["BENCH_CORE_OUT"] = str(fresh)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-only"]
        if not args.all:
            cmd += ["-k", args.select]
        print("+", " ".join(cmd))
        run = subprocess.run(cmd, cwd=REPO, env=env)
        if run.returncode != 0:
            print("update_bench_baseline: benchmark run failed; baseline untouched")
            return run.returncode
        if not fresh.exists():
            print("update_bench_baseline: no BENCH_core.json emitted; baseline untouched")
            return 1

        if BASELINE.exists():
            # Informational: never fails the refresh (the point is to
            # accept a new trajectory), but the delta belongs in the log.
            subprocess.run(
                [
                    sys.executable,
                    str(REPO / "scripts" / "bench_compare.py"),
                    str(BASELINE),
                    str(fresh),
                    "--max-regression",
                    "1e9",
                ],
                cwd=REPO,
            )
        if args.dry_run:
            print(f"update_bench_baseline: dry run; {BASELINE} left untouched")
            return 0
        shutil.move(str(fresh), BASELINE)
        print(f"update_bench_baseline: wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
