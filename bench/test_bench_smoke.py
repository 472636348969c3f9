"""Smoke test of the benchmark at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest bench -q

Proves that every workload runs, that every metric ``BENCHMARK.json``
names is printed with its unit, that the driver's single-workload call
ends in the JSON line the contract asks for, and that the traced run's
wrappers put the original callables back.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def run_bench(*flags, out=None):
    command = [sys.executable, str(BENCH / "run.py"), "--quick", *flags]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def printed_metrics(stdout):
    """{workload: {metric: unit}} parsed from the report tables."""
    tables, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = tables.setdefault(line.split()[1], {})
        elif current is not None and line.startswith("  ") and len(line.split()) >= 3:
            name, unit = line.split()[:2]
            current[name] = unit
    return tables


@pytest.mark.parametrize("kind, flags", [("end_to_end", ()), ("per_layer", ("--traced",))])
def test_every_workload_prints_every_metric(tmp_path, kind, flags):
    out = tmp_path / "result.json"
    tables = printed_metrics(run_bench(*flags, out=out))
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == WORKLOADS
    for key in ("nproc", "python", "numpy", "git_rev", "seed"):
        assert key in result
    for name in WORKLOADS:
        report = result["workloads"][name]
        assert report["failed"] == 0, report["samples"]
        assert all("wall_s" in sample for sample in report["samples"])
        for metric in SPEC[kind]:
            assert tables[name][metric["name"]] == metric["unit"]
            assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert tables[name]["failed_share"] == "share"
    if kind == "end_to_end":
        for name in WORKLOADS:
            for metric in SPEC[kind]:
                assert result["workloads"][name]["metrics"][metric["name"]]["median"] > 0
    else:
        assert all((BENCH / "out" / f"trace-{name}.json").exists() for name in WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_call_ends_in_the_contract_line(tmp_path, trace, kind):
    stdout = run_bench(
        "--workload", "fleet_deep", "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), out=tmp_path / "result.json",
    )
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }


def test_benchmark_json_matches_the_code():
    import run
    import tracing
    import workloads

    assert SPEC["paths"] == ["bench"]
    assert [w.name for w in workloads.WORKLOADS] == WORKLOADS
    assert list(run.WORKLOAD_NAMES) == WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_tracer_restores_the_original_callables():
    import tracing

    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer():
        for (owner, attr, _, _), original in zip(tracing.PATCHES, originals):
            assert vars(owner)[attr] is not original
    for (owner, attr, _, _), original in zip(tracing.PATCHES, originals):
        assert vars(owner)[attr] is original

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("a failing repetition")
    for (owner, attr, _, _), original in zip(tracing.PATCHES, originals):
        assert vars(owner)[attr] is original
