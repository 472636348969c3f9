#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py`` against the benchmark's bounds.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate. One row per (workload, end-to-end metric):
both medians with their min–max ranges, the ratio B/A, and a verdict:

* ``better``      every B sample reads better than every A sample;
* ``regression``  B's median is worse than A's by more than the bound
                  ``BENCHMARK.json`` fixes for the metric;
* ``unresolved``  within the bound, but the two ranges overlap and the
                  wider of them exceeds the bound, so the runs cannot
                  tell "unchanged" from "changed";
* ``ok``          within the bound and resolved.

Exits 1 on any regression or any increase of ``failed_share`` (whose
bound is 0), else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) for every end-to-end metric."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"]):
        return "better"
    if worsening > bound:
        return "regression"
    spread = max(a["max"] - a["min"], b["max"] - b["min"]) / a["median"]
    overlap = b["min"] <= a["max"] and a["min"] <= b["max"]
    if overlap and spread > bound:
        return "unresolved"
    return "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Rows of the comparison and whether B is acceptable."""
    bounds = load_bounds()
    rows = [
        f"{'workload':<12} {'metric':<17} {'unit':<5} "
        f"{'A median [min-max]':>34} {'B median [min-max]':>34} "
        f"{'B/A':>7}  verdict"
    ]
    acceptable = True
    for name, report_a in a["workloads"].items():
        report_b = b["workloads"].get(name)
        if report_b is None:
            rows.append(f"{name:<12} missing from B")
            acceptable = False
            continue
        for metric, (better, bound) in bounds.items():
            ma = report_a["metrics"].get(metric)
            mb = report_b["metrics"].get(metric)
            if ma is None or mb is None:
                rows.append(f"{name:<12} {metric:<17} missing (every repetition failed)")
                acceptable = False
                continue
            outcome = verdict(ma, mb, better, bound)
            acceptable &= outcome != "regression"
            rows.append(
                f"{name:<12} {metric:<17} {ma['unit']:<5} "
                f"{_cell(ma):>34} {_cell(mb):>34} "
                f"{mb['median'] / ma['median']:>7.3f}  {outcome}"
                f"{'' if outcome in ('ok', 'better') else f' (bound {bound:g})'}"
            )
        share_a = report_a["failed"] / report_a["attempted"]
        share_b = report_b["failed"] / report_b["attempted"]
        worse = share_b > share_a
        acceptable &= not worse
        rows.append(
            f"{name:<12} {'failed_share':<17} {'share':<5} "
            f"{share_a:>34.4g} {share_b:>34.4g} {'':>7}  "
            f"{'regression (bound 0)' if worse else 'ok'}"
        )
    return rows, acceptable


def _cell(m: Dict[str, Any]) -> str:
    return f"{m['median']:.5g} [{m['min']:.5g}-{m['max']:.5g}] n={m['n']}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for side, result in (("A", a), ("B", b)):
        print(
            f"{side}: rev={result['git_rev']} seed={result['seed']} "
            f"nproc={result['nproc']} python={result['python']} numpy={result['numpy']}"
        )
    rows, acceptable = compare(a, b)
    print("\n".join(rows))
    print("base of every ratio: A's median")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
