"""The repository's benchmark: one workload, measured cold, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fabric-uniform --seed 1 --seconds 30 --trace 0

``--trace 0`` runs cold cycles (each in a fresh process, see
``cycle.py``) until ``--seconds`` is spent — at least two, so every
run also checks that the same seed reproduces the same simulated
digest — and reports the median of each end-to-end metric over the
cycles (``setup_s``: over every set-up of every cycle, since each
cycle also repeats its set-up).  Host times are in reference-speed
seconds (``hostspeed.py``): scaled by a reference kernel timed between
the workload's steps, so that the host's changes of speed cancel out.
``--trace 1`` runs one untraced and one traced cycle and reports the
per-layer metrics, the ledger and the tracing overhead; the spans go
to ``perfbench/out/trace-*.json`` (Chrome trace-event JSON).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``record: {...}``) carries the provenance, per-cycle values and
digests, and is also appended to ``perfbench/out/records.jsonl``.
Any correctness failure prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from hostspeed import REF_SLICE_S  # noqa: E402
from ledger import LAYERS, SCHED_MODULES, format_ledger  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

#: End-to-end metric -> unit (host time unless the unit is cycles).
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "us_per_packet": "us",
    "warm_us_per_packet": "us",
    "us_per_request": "us",
    "req_per_s": "req/s",
    "req_wall_p50_ms": "ms",
    "req_wall_p99_ms": "ms",
    "sim_p50_cycles": "cycles",
    "sim_p99_cycles": "cycles",
    "sim_fg_p99_cycles": "cycles",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    names = [
        "build.topology_s", "build.policy_s", "build.service_s",
        "routing.forward_calls", "routing.forward_s", "routing.compute_calls",
        "routing.miss_ratio",
        "sim.run_s", "sim.self_s", "sim.events_processed", "sim.events_elided",
        "sim.logical_events", "sim.us_per_event", "sim.send_calls",
    ]
    for module in SCHED_MODULES + ("other",):
        names += [f"sched.{module}.calls", f"sched.{module}.s"]
    names += [
        "arb.mean_queue_depth", "arb.emergency_loans", "arb.deadlock_recoveries",
        "arb.fallback_hop_ratio", "arb.fg.p99_cycles", "arb.bulk.p99_cycles",
        "arb.bg.p99_cycles",
        "service.submit_calls", "service.submit_s", "service.delivery_calls",
        "service.delivery_s", "service.drain_s", "service.queued_total",
        "service.shed", "service.stalled", "service.forwarded", "service.timeouts",
        "dram.calls", "dram.s",
        "reconfig.events", "reconfig.s", "reconfig.rebuild_calls", "reconfig.rebuild_s",
        "migration.batches", "migration.pages", "migration.packets",
        "daemon.decode_calls", "daemon.decode_s", "daemon.encode_calls",
        "daemon.encode_s", "daemon.quanta", "daemon.quantum_s", "daemon.idle_s",
    ]
    names += [f"ledger.{layer}.self_s" for layer in LAYERS]
    names += ["ledger.unattributed_s", "ledger.total_s", "trace.overhead_ratio"]
    units = {}
    for name in names:
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith("_cycles"):
            units[name] = "cycles"
        elif name.endswith(("_ratio",)):
            units[name] = "ratio"
        elif name == "sim.us_per_event":
            units[name] = "us"
        elif name == "arb.mean_queue_depth":
            units[name] = "packets"
        else:
            units[name] = "count"
    return units


PER_LAYER = _per_layer_units()

#: Cold cycles per untraced run at least: two runs of one seed must
#: agree on the simulated digest.
MIN_CYCLES = 2
#: Wall-clock cap on one benchmark invocation's cycles (seconds).
HARD_LIMIT = 150.0


def provenance(seed: int, workload: str, scale: str) -> dict:
    """Machine canary, source identity, core count, Python and seed."""
    from repro.obs.canary import run_canary

    sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "canary_kops": run_canary()["kops"],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_cycle(workload: str, seed: int, scale: str, trace: bool, run_id: str,
              timeout: float) -> dict:
    """One cycle in a fresh process (``cycle.py``); returns its record."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "cycle.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(int(trace)),
           "--run-id", run_id, "--out-dir", str(OUT)]
    # A session of its own, so a timeout also kills the daemon server
    # that a daemon-loopback cycle starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"cycle exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _median(records: list[dict], key: str) -> float:
    if key == "setup_s":
        return statistics.median(x for r in records for x in r["setup_samples"])
    return statistics.median(float(r[key]) for r in records)


def check(records: list[dict]) -> list[str]:
    """Correctness gate over a run's cycles (empty list = correct)."""
    problems = [p for r in records for p in r["checks"]]
    digests = {r["digest"] for r in records if r["digest"] is not None}
    if len(digests) > 1:
        problems.append(f"same seed gave {len(digests)} different simulated digests")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=sorted(SCALES),
                        help="toy: the self-test's small inputs")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run_id = f"s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    prov = provenance(args.seed, args.workload, args.scale)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)

    start = time.monotonic()
    records: list[dict] = []
    problems: list[str] = []
    try:
        if args.trace:
            records.append(run_cycle(args.workload, args.seed, args.scale, False,
                                     run_id + "-base", HARD_LIMIT))
            remaining = HARD_LIMIT - (time.monotonic() - start)
            records.append(run_cycle(args.workload, args.seed, args.scale, True,
                                     run_id, remaining))
        else:
            while True:
                remaining = HARD_LIMIT - (time.monotonic() - start)
                records.append(run_cycle(args.workload, args.seed, args.scale, False,
                                         f"{run_id}-{len(records)}", remaining))
                elapsed = time.monotonic() - start
                per_cycle = elapsed / len(records)
                if len(records) >= MIN_CYCLES and elapsed + per_cycle > args.seconds:
                    break
                if elapsed + per_cycle > HARD_LIMIT:
                    break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        problems.append(f"cycle failed: {exc}")
    if len(records) < (2 if args.trace else MIN_CYCLES):
        problems.append(f"only {len(records)} cycles completed")
    problems += check(records)

    metrics: dict[str, dict] = {}
    if records and args.trace and len(records) == 2:
        base, traced = records
        layers = dict(traced["layers"])
        rows = traced["ledger"]["rows"]
        for layer in LAYERS:
            layers[f"ledger.{layer}.self_s"] = rows[layer]["self_ns"] / 1e9
        layers["ledger.unattributed_s"] = rows["unattributed"]["self_ns"] / 1e9
        layers["ledger.total_s"] = traced["ledger"]["total_ns"] / 1e9
        # Raw seconds on both sides: the traced cycle runs no reference
        # slices, and the untraced one's clock leaves them out.
        layers["trace.overhead_ratio"] = (traced["detail"]["raw"]["total"]
                                          / base["detail"]["raw"]["total"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print(f"ledger ({args.workload}, seed {args.seed}, traced cycle):")
        print(format_ledger(traced["ledger"], layers["trace.overhead_ratio"]))
        print(f"trace file: {traced.get('trace_file')}")
    elif records and not args.trace:
        metrics = {name: {"value": _median(records, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
        setups = sum(len(r["setup_samples"]) for r in records)
        for name, metric in metrics.items():
            count = f"{setups} set-ups in" if name == "setup_s" else "of"
            print(f"{name:>20} {metric['value']:>14.4f} {metric['unit']:<7}"
                  f" median {count} {len(records)} cycles")
        samples = [r["req_wall_samples"] for r in records]
        print(f"{'':>20} req_wall percentiles over {samples} samples per cycle")
        slices = [r["hostspeed"]["mean_slice_s"] * 1e3 for r in records]
        print(f"{'':>20} host times at reference speed ({REF_SLICE_S * 1e3:g} ms slice);"
              f" mean slice per cycle: {', '.join(f'{x:.3f}' for x in slices)} ms")

    attempted = sum(int(r["attempted"]) for r in records) or 1
    failed = sum(int(r["failed"]) for r in records)
    print(f"error_rate: {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record = {"provenance": prov, "trace": args.trace, "cycles": records,
              "problems": problems, "wall_s": time.monotonic() - start}
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    digests = [r["digest"] for r in records]
    print("record: " + json.dumps({"provenance": prov, "digests": digests,
                                   "problems": problems}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
