"""One benchmark cycle in a fresh process; prints its record as JSON.

``run.py`` starts this once per cycle so that every cycle is cold:
nothing built, no decision cache filled, no module state left over
from an earlier cycle.  An untraced cycle ends with set-up repeats
(``workloads.repeat_setup``) and records every set-up time in
``setup_samples``.  An untraced cycle runs the reference slices of
``hostspeed`` throughout, so its host times are in reference-speed
seconds.  With ``--trace 1`` the layer wrappers of
``ledger.install`` are on for the whole cycle and the record carries
the per-layer metrics, the ledger and the Chrome trace file's path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ledger  # noqa: E402
import workloads  # noqa: E402


def run(workload: str, seed: int, scale: str, trace: bool, run_id: str, out_dir: Path) -> dict:
    """Run one cycle of *workload*; returns its record."""
    from repro.network.stats import percentile

    p = workloads.SCALES[scale][workload]
    workloads.preload()
    if not trace:
        hostspeed.start()
    if workload == "daemon-loopback":
        from loopback import daemon_loopback

        record = daemon_loopback(p, seed, scale, trace, run_id, out_dir)
    else:
        tracer = None
        if trace:
            tracer = ledger.Tracer(workload, run_id)
            ledger.install(tracer)
            t_begin = tracer.clock()
        record = workloads.CYCLES[workload](p, seed, tracer)
        record["peak_rss_mb"] = workloads.peak_rss_mb()
        if tracer is not None:
            tracer.window = (t_begin, tracer.clock())
            record["ledger"] = tracer.ledger()
            path = out_dir / f"trace-{workload}-{run_id}.json"
            path.write_text(json.dumps(tracer.chrome_trace()))
            record["trace_file"] = str(path)
        else:
            # After the peak RSS is read: the repeats' builds are not
            # the workload's memory.
            intervals = workloads.repeat_setup(
                lambda: workloads.SETUPS[workload](p, seed), record.pop("setup_iv"))
            record["setup_samples"] = [hostspeed.scaled(*iv) for iv in intervals]
            record["detail"]["raw"]["setup_samples"] = [b - a for a, b in intervals]
    hostspeed.stop()
    record.pop("setup_iv", None)
    record["hostspeed"] = hostspeed.summary()
    wall = record.pop("wall_samples")
    record["req_wall_p50_ms"] = percentile(wall, 50) * 1e3
    record["req_wall_p99_ms"] = percentile(wall, 99) * 1e3
    record["req_wall_samples"] = len(wall)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=sorted(workloads.SCALES))
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.scale, bool(args.trace),
                 args.run_id, Path(args.out_dir))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
