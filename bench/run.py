#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py                       # all six workloads, fixed R
    python3 bench/run.py --traced              # the per-layer ledger
    python3 bench/run.py --workload fleet_deep --seed 3 --seconds 10 --trace 0

Each workload runs in a fresh child interpreter (so one workload's heap
never shapes another's): one untimed warm-up repetition, then timed
repetitions, each on its own input seed and digest-checked against
``expected_digests.json``. Without ``--seconds`` a workload runs its
fixed repetition count; with it, repetitions run until that many seconds
of measuring have passed. With exactly one ``--workload`` the last line
of output is the driver's JSON result. See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "expected_digests.json"

WORKLOAD_NAMES = (
    "fleet_wide", "fleet_deep", "fleet_lossy",
    "sweep_grid", "tune_search", "figure_grid",
)

#: End-to-end metrics: name -> unit. ``failed_share`` is printed and
#: compared like the rest but is carried to the driver by the result's
#: ``attempted``/``failed`` keys, because its healthy value is 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "devices_per_s": "1/s",
    "sim_events_per_s": "1/s",
    "cells_per_s": "1/s",
    "evals_per_s": "1/s",
}

#: Fewest timed repetitions (and traced pairs) a ``--seconds`` run makes.
MIN_TIMED_REPS = 3
MIN_TRACED_PAIRS = 2

#: A child that has not finished by then is killed with its workers.
CHILD_TIMEOUT_S = 170

SHM_PATTERN = "/dev/shm/repro-trace-*"


# ----------------------------------------------------------------------
# Child: one workload in a fresh interpreter
# ----------------------------------------------------------------------

def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _cpu_times() -> Tuple[float, float]:
    """(own, reaped workers') user+system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Child:
    """Runs the repetitions of one workload and reports them as JSON."""

    def __init__(self, args: argparse.Namespace) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads  # imports repro: fails here when src/ is absent

        self.args = args
        self.workloads = workloads
        self.workload = workloads.BY_NAME[args.workload]
        self.scale = 10 if args.quick else 1
        self.tmp_root = Path(args.tmp)
        if args.trace:
            import tracing

            self.tracing = tracing
        self.pinned: Optional[List[str]] = None
        self.first_digest: Optional[str] = None
        if not args.quick and args.mode != "digests":
            pinned = json.loads(DIGESTS.read_text())
            if pinned["seed_pool"] != workloads.SEED_POOL:
                raise SystemExit("expected_digests.json: seed pool mismatch")
            self.pinned = pinned["digests"][args.workload]

    def input_seed(self, r: int) -> int:
        if self.args.quick:
            r = 0
        return (self.args.seed + r) % self.workloads.SEED_POOL

    def rep(self, r: int, traced: bool = False) -> Dict[str, Any]:
        """One repetition: timed run, then (untimed) the output checks."""
        seed = self.input_seed(r)
        sample: Dict[str, Any] = {"rep": r, "seed": seed, "ok": False}
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            gc.collect()
            tracer = self.tracing.Tracer() if traced else None
            cpu0, t0 = _cpu_times(), time.perf_counter()
            try:
                with tracer or nullcontext():
                    raw = self.workload.run(seed, self.scale, tmp)
            except Exception:
                sample["error"] = traceback.format_exc()
                return sample
            t1, cpu1 = time.perf_counter(), _cpu_times()
            outcome = self.workload.summarize(raw)
            wall = t1 - t0
            worker_cpu = cpu1[1] - cpu0[1]
            sample.update(
                wall_s=wall,
                cpu_s=cpu1[0] - cpu0[0] + worker_cpu,
                worker_cpu_s=worker_cpu,
                devices=outcome.devices,
                events=outcome.events,
                cells=outcome.cells,
                evals=outcome.evals,
                digest=outcome.digest,
            )
            errors = list(outcome.shape_errors)
            if self.pinned is not None:
                if outcome.digest != self.pinned[seed]:
                    errors.append(
                        f"digest {outcome.digest[:12]} != pinned "
                        f"{self.pinned[seed][:12]}"
                    )
            elif self.args.quick:
                # --quick sizes have no pinned digest; every repetition
                # replays the warm-up's input and must reproduce its output.
                if self.first_digest is None:
                    self.first_digest = outcome.digest
                elif outcome.digest != self.first_digest:
                    errors.append("a second pass produced a different digest")
            if tracer is not None:
                layers = self.tracing.ledger(
                    tracer.spans, tracer.counts, wall, worker_cpu
                )
                layers["tune.evaluations"] = (
                    outcome.evals if self.workload.name == "tune_search" else 0
                )
                if self.workload.name == "sweep_grid":
                    layers.update(
                        self.tracing.probe_sweep_layers(
                            seed, self.scale, outcome.store_path
                        )
                    )
                elif outcome.store_path is not None:
                    layers["store.file_bytes"] = os.path.getsize(outcome.store_path)
                sample["layers"] = layers
                sample["spans"] = self.tracing.span_rows(tracer.spans, t0)
            if errors:
                sample["error"] = "; ".join(errors)
            else:
                sample["ok"] = True
            return sample
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        args = self.args
        if args.mode == "digests":
            samples = [self.rep(r) for r in range(self.workloads.SEED_POOL)]
            result: Dict[str, Any] = {"digests": [s.get("digest") for s in samples]}
        else:
            samples = [self.rep(0)]  # the warm-up
            setup_s = time.monotonic() - args.spawned_at
            deadline = (
                None if args.seconds is None else time.perf_counter() + args.seconds
            )
            if args.trace:
                result = self._traced(samples, deadline)
            else:
                result = self._timed(samples, deadline, setup_s)
        for sample in samples:
            if "error" in sample:
                print(
                    f"{args.workload} rep {sample['rep']} (seed {sample['seed']}) "
                    f"FAILED: {sample['error']}",
                    file=sys.stderr,
                )
        import numpy

        result.update(
            workload=args.workload,
            seed=args.seed,
            attempted=len(samples),
            failed=sum(not s["ok"] for s in samples),
            samples=samples,
            numpy=numpy.__version__,
        )
        return result

    def _timed(
        self,
        samples: List[Dict[str, Any]],
        deadline: Optional[float],
        setup_s: float,
    ) -> Dict[str, Any]:
        fixed = 1 if self.args.quick else self.workload.reps
        timed: List[Dict[str, Any]] = []
        while True:
            timed.append(self.rep(len(timed) + 1))
            if deadline is None:
                if len(timed) >= fixed:
                    break
            elif len(timed) >= MIN_TIMED_REPS and time.perf_counter() >= deadline:
                break
        samples += timed
        ok = [s for s in timed if s["ok"]]
        values = {"setup_s": [setup_s]}
        if ok:
            values.update(
                wall_s=[s["wall_s"] for s in ok],
                cpu_s=[s["cpu_s"] for s in ok],
                peak_rss_mb=[_peak_rss_mb()],
                devices_per_s=[s["devices"] / s["wall_s"] for s in ok],
                sim_events_per_s=[s["events"] / s["wall_s"] for s in ok],
                cells_per_s=[s["cells"] / s["wall_s"] for s in ok],
                evals_per_s=[s["evals"] / s["wall_s"] for s in ok],
            )
        return {
            "metrics": {
                name: _summary(values[name], unit)
                for name, unit in END_TO_END.items()
                if name in values
            }
        }

    def _traced(
        self, samples: List[Dict[str, Any]], deadline: Optional[float]
    ) -> Dict[str, Any]:
        """Pairs of (plain, traced) repetitions over the same input.

        The order alternates from pair to pair so neither side always
        inherits the heap the other left behind; the median ratio of a
        pair's two wall clocks is the tracing overhead.
        """
        plain: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        min_pairs = 1 if self.args.quick else MIN_TRACED_PAIRS
        pairs = 0
        while True:
            pairs += 1
            for side in ("plain", "traced") if pairs % 2 else ("traced", "plain"):
                if side == "plain":
                    plain.append(self.rep(pairs))
                else:
                    traced.append(self.rep(pairs, traced=True))
            if pairs >= min_pairs and (
                deadline is None or time.perf_counter() >= deadline
            ):
                break
        samples += plain + traced
        ok = [s for s in traced if s["ok"]]
        # Per pair, because the two repetitions of a pair are adjacent in
        # time and share the host's drift.
        ratios = [
            t["wall_s"] / p["wall_s"] - 1.0
            for p, t in zip(plain, traced)
            if p["ok"] and t["ok"]
        ]
        metrics: Dict[str, Any] = {}
        if ratios:
            overhead = statistics.median(ratios)
            span_cost = self.tracing.span_cost_s()
            for sample in ok:
                layers = sample["layers"]
                layers["trace.overhead_share"] = overhead
                layers["trace.span_cost_share"] = (
                    layers["trace.spans"] * span_cost / sample["wall_s"]
                )
            for name, unit in self.tracing.PER_LAYER.items():
                metrics[name] = _summary([s["layers"][name] for s in ok], unit)
        spans = [
            {"rep": s["rep"], "seed": s["seed"], "wall_s": s.get("wall_s"),
             "spans": s.pop("spans", [])}
            for s in traced
        ]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{self.workload.name}.json").write_text(
            json.dumps({"workload": self.workload.name, "reps": spans})
        )
        return {"metrics": metrics}


# ----------------------------------------------------------------------
# Parent: spawn, collect, report
# ----------------------------------------------------------------------

def spawn_child(workload: str, args: argparse.Namespace, mode: str) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its report.

    Raises ``RuntimeError`` when the child dies without a report. Shared
    memory segments the child leaves behind count as one failed
    repetition and are removed.
    """
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    before = set(glob.glob(SHM_PATTERN))
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", "--mode", mode, "--workload", workload,
        "--seed", str(args.seed), "--trace", str(args.trace), "--tmp", tmp,
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        # The digest regeneration runs every pinned seed; it is not a
        # measurement and gets no deadline.
        stdout, _ = child.communicate(
            timeout=None if mode == "digests" else CHILD_TIMEOUT_S
        )
    except BaseException:
        # Timeout or interrupt: take the child's pool workers with it.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        leaked = sorted(set(glob.glob(SHM_PATTERN)) - before)
        for path in leaked:
            os.unlink(path)
    if child.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{workload}: child exited with {child.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    if leaked:
        print(f"{workload}: leaked shared memory {leaked}", file=sys.stderr)
        report["attempted"] += 1
        report["failed"] += 1
        report["leaked_shm"] = leaked
    return report


def git_rev() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def update_digests(args: argparse.Namespace) -> int:
    """Regenerate ``expected_digests.json`` from a clean ``src/``."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError as exc:
        print(f"--update-digests needs git: {exc}", file=sys.stderr)
        return 2
    if status.returncode != 0 or status.stdout.strip():
        print(
            "--update-digests refused: src/ must be a clean git working tree, "
            "so the pinned outputs belong to a commit\n" + status.stdout + status.stderr,
            file=sys.stderr,
        )
        return 2
    args.seed = 0  # repetition r of this pass has input seed r
    digests = {}
    for name in args.workloads:
        report = spawn_child(name, args, "digests")
        if report["failed"]:
            print(f"{name}: a repetition failed; digests not written", file=sys.stderr)
            return 1
        digests[name] = report["digests"]
        print(f"{name}: {len(report['digests'])} digests")
    pinned = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    pinned.update(digests)
    DIGESTS.write_text(
        json.dumps(
            {"seed_pool": len(next(iter(pinned.values()))), "rev": git_rev(),
             "digests": pinned},
            indent=1,
        )
        + "\n"
    )
    return 0


def print_report(report: Dict[str, Any]) -> None:
    failed_share = report["failed"] / report["attempted"]
    print(
        f"\n== {report['workload']}  seed={report['seed']}  "
        f"attempted={report['attempted']} failed={report['failed']}"
    )
    print(f"  {'metric':<28}{'unit':<7}{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
    for name, m in report["metrics"].items():
        print(
            f"  {name:<28}{m['unit']:<7}{m['median']:>14.6g}"
            f"{m['min']:>14.6g}{m['max']:>14.6g}{m['n']:>4}"
        )
    print(f"  {'failed_share':<28}{'share':<7}{failed_share:>14.6g}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append",
                        dest="workloads", help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of the fixed R")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1: the per-layer ledger")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10, R=1, digests by a second pass")
    parser.add_argument("--update-digests", action="store_true")
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON (default bench/out/result-*.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="measure", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.child:
        (args.workload,) = args.workloads
        print(json.dumps(Child(args).run()))
        return 0

    if not (ROOT / "src" / "repro").is_dir():
        # Never measure some other installed copy of the package.
        print(f"benchmark failed: no src/repro beside {BENCH}", file=sys.stderr)
        return 1
    args.workloads = args.workloads or list(WORKLOAD_NAMES)
    if args.update_digests:
        return update_digests(args)

    reports = []
    for name in args.workloads:
        try:
            reports.append(spawn_child(name, args, "measure"))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])

    numpy_version = reports[0].pop("numpy")
    for report in reports[1:]:
        report.pop("numpy")
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev(),
        "workloads": {report["workload"]: report for report in reports},
    }
    kind = ("traced" if args.trace else "e2e") + ("-quick" if args.quick else "")
    out = args.out or OUT / f"result-{kind}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")

    failed = sum(report["failed"] for report in reports)
    if len(reports) == 1:
        (report,) = reports
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": report["attempted"],
                    "failed": report["failed"],
                    "metrics": {
                        name: {"value": m["median"], "unit": m["unit"]}
                        for name, m in report["metrics"].items()
                    },
                }
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
