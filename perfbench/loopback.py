"""daemon-loopback: the ``repro serve`` stack driven over real sockets.

Run as a script this is the *server*: FabricService + FabricDaemon in a
process of their own, bound to an ephemeral loopback port.  It prints
``{"port"}`` once it listens, serves until a ``shutdown`` verb, then
prints its own record (peak RSS, conservation checks, set-up repeats,
its mean reference-slice time while serving, the per-layer metrics when
traced) as its last line.  Both processes run the reference slices of
``hostspeed`` when untraced; the client's times are scaled by the mean
of the two processes' slice times, since both are on its critical path.

:func:`daemon_loopback` is the *load generator* side, run inside the
benchmark's cycle process: a closed loop over ``connections`` sockets,
each keeping ``window`` reads and writes in flight until it has sent
``requests_per_connection``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from hostspeed import clock  # noqa: E402
from workloads import (  # noqa: E402
    READ_FRACTION,
    REQUEST_BYTES,
    SCALES,
    conservation_checks,
    peak_rss_mb,
    preload,
    repeat_setup,
    service_layers,
    sub_seed,
)

HOST = "127.0.0.1"
#: Seconds the client waits for any one reply before failing the cycle.
REPLY_TIMEOUT = 60.0


# -- server -------------------------------------------------------------------

async def _build(p: dict, seed: int, tracer=None):
    """FabricService + FabricDaemon, bound and listening.

    Returns the service, the daemon, the pump's idle counter (traced
    only) and the build's interval of :func:`hostspeed.clock`.
    """
    from repro.service.core import FabricService
    from repro.service.daemon import FabricDaemon

    t_start = clock()
    service = FabricService(
        nodes=p["nodes"], topology_seed=sub_seed(seed, "topology"),
        seed=sub_seed(seed, "service"), footprint_pages=p["footprint_pages"],
    )
    daemon = FabricDaemon(service, host=HOST, port=0, quantum=p["quantum"])
    idle = None
    if tracer is not None:
        from ledger import time_idle

        idle = time_idle(tracer, daemon)
    await daemon.start()
    return service, daemon, idle, (t_start, clock())


async def _setup_once(p: dict, seed: int) -> tuple[float, float]:
    """One more set-up, then the daemon's teardown; returns its interval."""
    _service, daemon, _idle, setup_iv = await _build(p, seed)
    await daemon.stop()
    return setup_iv


async def _serve(p: dict, seed: int, tracer, out_dir: Path) -> dict:
    t_begin = tracer.clock() if tracer is not None else 0
    service, daemon, idle, setup_iv = await _build(p, seed, tracer)
    print(json.dumps({"port": daemon.port}), flush=True)
    t_serve = clock()
    await daemon.wait_stopped()
    serve_iv = (t_serve, clock())
    # Let the transports flush the shutdown reply before the loop closes.
    await asyncio.sleep(0.05)
    report = service.drain()
    problems = conservation_checks(service.sim, "daemon")
    if not report["all_conserved"]:
        problems.append("daemon: final drain not conserved")
    snap = service.snapshot()
    record = {
        "setup_iv": setup_iv,
        "serve_mean_slice_s": hostspeed.mean_slice(*serve_iv),
        "peak_rss_mb": peak_rss_mb(),
        "sim_fg_p99_cycles": service.sim.stats.latency.percentile(99),
        "submitted": snap["submitted"],
        "completed": snap["completed"],
        "delivered": snap["delivered"],
        "dropped": snap["dropped"],
        "checks": problems,
    }
    if tracer is not None:
        tracer.window = (t_begin, tracer.clock())
        record["layers"] = service_layers(
            tracer, service, class_p99={0: record["sim_fg_p99_cycles"]},
            idle_s=idle["ns"] / 1e9,
        )
        record["ledger"] = tracer.ledger()
        path = out_dir / f"trace-daemon-loopback-{tracer.run_id}.json"
        path.write_text(json.dumps(tracer.chrome_trace()))
        record["trace_file"] = str(path)
    return record


def serve_main(argv=None) -> int:
    """Server entry point (a process of its own)."""
    parser = argparse.ArgumentParser(description="daemon-loopback server")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=sorted(SCALES))
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    p = SCALES[args.scale]["daemon-loopback"]
    preload()
    tracer = None
    if args.trace:
        from ledger import Tracer, install

        tracer = Tracer("daemon-loopback", args.run_id)
        install(tracer, daemon=True)
    else:
        hostspeed.start()
    record = asyncio.run(_serve(p, args.seed, tracer, Path(args.out_dir)))
    setup_iv = record.pop("setup_iv")
    record["setup_s"] = hostspeed.scaled(*setup_iv)
    record["raw_setup_s"] = setup_iv[1] - setup_iv[0]
    if tracer is None:
        intervals = repeat_setup(lambda: asyncio.run(_setup_once(p, args.seed)), setup_iv)
        record["setup_samples"] = [hostspeed.scaled(*iv) for iv in intervals]
        record["raw_setup_samples"] = [b - a for a, b in intervals]
    hostspeed.stop()
    print(json.dumps(record), flush=True)
    return 0


# -- load generator -------------------------------------------------------------

class _Load:
    """Shared state of the closed-loop client connections."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.mid_sent = False
        self.mid: tuple[float, int] | None = None
        self.wall: list[float] = []
        self.sim: list[float] = []
        self.not_ok = 0
        self.unexpected = 0
        self.missing = 0
        self.last = 0.0


async def _reply(reader) -> dict:
    line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT)
    if not line:
        raise ConnectionError("daemon closed the connection")
    return json.loads(line)


async def _connection(idx: int, reader, writer, p: dict, rng, load: _Load) -> None:
    pending: dict[str, float] = {}
    count = p["requests_per_connection"]
    issued = 0
    awaiting_mid = False

    def send_one() -> None:
        nonlocal issued
        rid = f"c{idx}-{issued}"
        issued += 1
        op = "read" if rng.random() < READ_FRACTION else "write"
        message = {"op": op, "page": rng.randrange(p["footprint_pages"]),
                   "size": REQUEST_BYTES, "id": rid}
        pending[rid] = clock()
        writer.write(json.dumps(message).encode() + b"\n")

    for _ in range(min(p["window"], count)):
        send_one()
    answered = 0
    while answered < count or awaiting_mid:
        body = await _reply(reader)
        now = clock()
        rid = body.get("id")
        if rid == "stats-mid":
            load.mid = (now, body["delivered"])
            awaiting_mid = False
            continue
        t0 = pending.pop(rid, None)
        if t0 is None:
            load.unexpected += 1
            continue
        answered += 1
        load.done += 1
        load.last = max(load.last, now)
        load.wall.append(now - t0)
        if body.get("ok") is True:
            load.sim.append(body["latency"])
        else:
            load.not_ok += 1
        if not load.mid_sent and load.done * 2 >= load.total:
            load.mid_sent = awaiting_mid = True
            writer.write(b'{"op": "stats", "id": "stats-mid"}\n')
        if issued < count:
            send_one()
        await writer.drain()
    load.missing += len(pending)


async def _drive(p: dict, seed: int, port: int) -> dict:
    conns = []
    for idx in range(p["connections"]):
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(json.dumps({"op": "hello", "tenant": f"client-{idx}"}).encode() + b"\n")
        await _reply(reader)
        conns.append((reader, writer))
    load = _Load(p["connections"] * p["requests_per_connection"])
    t_first = clock()
    await asyncio.gather(*(
        _connection(idx, reader, writer, p, random.Random(sub_seed(seed, f"client-{idx}")), load)
        for idx, (reader, writer) in enumerate(conns)
    ))
    reader, writer = conns[0]
    writer.write(b'{"op": "stats", "id": "stats-end"}\n')
    end = await _reply(reader)
    writer.write(b'{"op": "shutdown", "id": "shutdown"}\n')
    shutdown = await _reply(reader)
    t_done = clock()
    for _reader, w in conns:
        w.close()
    return {"load": load, "t_first": t_first, "t_done": t_done,
            "delivered_end": end["delivered"], "shutdown": shutdown}


def daemon_loopback(p: dict, seed: int, scale: str, trace: bool,
                    run_id: str, out_dir: Path) -> dict:
    """One cycle: start the server process, drive it, shut it down."""
    from repro.network.stats import percentile

    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
           "--scale", scale, "--trace", str(int(trace)), "--run-id", run_id,
           "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        hello = json.loads(proc.stdout.readline())
        result = asyncio.run(_drive(p, seed, hello["port"]))
        tail, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"daemon server exited with {proc.returncode}")
    server = json.loads(tail.strip().splitlines()[-1])
    load: _Load = result["load"]
    t_first, t_done = result["t_first"], result["t_done"]
    mid_t, mid_delivered = load.mid

    def factor(v0: float, v1: float) -> float:
        means = [m for m in (hostspeed.mean_slice(v0, v1), server["serve_mean_slice_s"])
                 if m is not None]
        return hostspeed.REF_SLICE_S * len(means) / sum(means) if means else 1.0

    raw_span = load.last - t_first
    span_factor = factor(t_first, load.last)
    span = raw_span * span_factor
    delivered = result["delivered_end"]
    problems = list(server["checks"])
    if not result["shutdown"].get("all_conserved"):
        problems.append("daemon: shutdown drain report not conserved")
    failed = load.not_ok + load.missing + load.unexpected
    if failed:
        problems.append(
            f"daemon: {load.not_ok} error responses, {load.missing} missing, "
            f"{load.unexpected} unexpected ids"
        )
    responses = len(load.wall)
    out = {
        "setup_s": server["setup_s"],
        "total_s": server["setup_s"] + (t_done - t_first) * factor(t_first, t_done),
        "us_per_packet": span / delivered * 1e6,
        "warm_us_per_packet": (load.last - mid_t) * factor(mid_t, load.last)
        / (delivered - mid_delivered) * 1e6,
        "us_per_request": span / responses * 1e6,
        "req_per_s": responses / span,
        "wall_samples": [x * span_factor for x in load.wall],
        "sim_p50_cycles": percentile(load.sim, 50),
        "sim_p99_cycles": percentile(load.sim, 99),
        "sim_fg_p99_cycles": server["sim_fg_p99_cycles"],
        "peak_rss_mb": server["peak_rss_mb"],
        "attempted": load.total,
        "failed": failed,
        "checks": problems,
        # Socket interleaving decides which quantum a request lands in,
        # so daemon runs are not bit-identical across repeats.
        "digest": None,
        "detail": {"responses": responses, "delivered": delivered,
                   "server_submitted": server["submitted"],
                   "server_completed": server["completed"],
                   "raw": {"setup": server["raw_setup_s"], "total": server["raw_setup_s"]
                           + t_done - t_first, "span": raw_span,
                           "setup_samples": server.get("raw_setup_samples")}},
    }
    for key in ("setup_samples", "layers", "ledger", "trace_file"):
        if key in server:
            out[key] = server[key]
    return out


if __name__ == "__main__":
    sys.exit(serve_main())
