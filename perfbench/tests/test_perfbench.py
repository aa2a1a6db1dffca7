"""Toy-scale self-test of the benchmark.

Runs every workload at ``--scale toy`` (same code paths as the real
benchmark, small inputs) untraced and traced, and checks that each
emits every declared metric with its unit, passes its correctness
gate, and that the traced ledger closes exactly.  Run from the
repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import ledger  # noqa: E402
import run as bench  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert value > 0 or trace, f"{name} is {value}"
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[f"ledger.{layer}.self_s"] for layer in ledger.LAYERS)
        assert layers + metrics["ledger.unattributed_s"] == pytest.approx(
            metrics["ledger.total_s"], abs=1e-6)
        assert metrics["trace.overhead_ratio"] > 0


def test_ledger_rows_sum_exactly_to_the_window():
    tracer = ledger.Tracer("unit", "r")
    inner = tracer.wrap(lambda: sum(range(1000)), "routing.forward", "routing")
    outer = tracer.wrap(lambda: [inner() for _ in range(5)], "sim.run", "sim")
    build = tracer.wrap(inner, "build.topology", "build")
    start = tracer.clock()
    outer()
    build()
    tracer.window = (start, tracer.clock())
    result = tracer.ledger()
    rows = result["rows"]
    assert sum(row["self_ns"] for row in rows.values()) == result["total_ns"]
    assert rows["routing"]["calls"] == 6
    assert rows["sim"]["busy_ns"] >= rows["sim"]["self_ns"] > 0
    assert tracer.calls["routing.forward"] == 6
    trace = tracer.chrome_trace()
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 8


def test_hostspeed_clock_leaves_out_the_slices():
    # Before any slice, an interval is reported raw.
    assert hostspeed.scaled(1.0, 3.0) == 2.0
    hostspeed.start()
    try:
        v0, w0 = hostspeed.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 0.6:
            pass
        v1, w1 = hostspeed.clock(), time.perf_counter()
    finally:
        hostspeed.stop()
    info = hostspeed.summary()
    assert info["slices"] >= hostspeed.MIN_SLICES
    assert (w1 - w0) - (v1 - v0) == pytest.approx(info["excluded_s"], abs=2e-3)
    mean = hostspeed.mean_slice(v0, v1)
    assert mean == pytest.approx(info["mean_slice_s"], rel=0.05)
    assert hostspeed.scaled(v0, v1) == pytest.approx(
        (v1 - v0) * hostspeed.REF_SLICE_S / mean)
    # A short interval is scaled by the slices nearest to it.
    assert hostspeed.mean_slice(v1 - 1e-6, v1) > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "fabric-uniform", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
