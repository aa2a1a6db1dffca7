"""The benchmark's four workloads, one cold cycle each.

A *cycle* is everything a user's single run pays for, measured in a
fresh process: build, a cold run, drain, checks — plus warm repeats on
the already-built stack.  Each workload function returns one flat
record with the end-to-end metrics, the correctness checks and (when a
:class:`~ledger.Tracer` is passed) the per-layer metrics.

Every input is generated from the ``--seed`` through :func:`sub_seed`:
topology, injection, service schedule and client RNG.

Each workload also has a *set-up* function that builds its stack once
more and returns the build's interval; :func:`repeat_setup` calls it
after an untraced cycle's measurements, so ``setup_s`` is a median over
several builds instead of one.

Every host time is taken with :func:`hostspeed.clock` and reported in
reference-speed seconds (:func:`hostspeed.scaled`); the raw seconds
are kept under ``detail["raw"]``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource

import hostspeed
from hostspeed import clock, scaled
from ledger import SCHED_MODULES

WORKLOADS = ("fabric-uniform", "fabric-incast-qos", "service-elastic", "daemon-loopback")

#: Workload parameters.  ``full`` is the benchmark; ``toy`` is the
#: self-test scale (same code paths, seconds instead of minutes).
SCALES = {
    "full": {
        "fabric-uniform": {"nodes": 1296, "rate": 0.05, "warmup": 100,
                           "measure": 300, "drain_limit": 20_000, "warm_repeats": 1},
        "fabric-incast-qos": {"nodes": 324, "rate": 0.1, "fg_rate": 0.05, "warmup": 300,
                              "measure": 1000, "drain_limit": 60_000, "warm_repeats": 3},
        "service-elastic": {"nodes": 144, "tenants": 8, "requests_per_tenant": 2048,
                            "rate": 0.25, "max_outstanding": 48, "queue_depth": 16384,
                            "footprint_pages": 512, "scale_at": 1000, "scale_count": 8,
                            "scale_back_after": 2048},
        "daemon-loopback": {"nodes": 144, "connections": 2, "window": 64,
                            "requests_per_connection": 20000, "footprint_pages": 512,
                            "quantum": 64},
    },
    "toy": {
        "fabric-uniform": {"nodes": 64, "rate": 0.05, "warmup": 50,
                           "measure": 100, "drain_limit": 5_000, "warm_repeats": 1},
        "fabric-incast-qos": {"nodes": 64, "rate": 0.1, "fg_rate": 0.05, "warmup": 100,
                              "measure": 300, "drain_limit": 10_000, "warm_repeats": 1},
        "service-elastic": {"nodes": 36, "tenants": 4, "requests_per_tenant": 96,
                            "rate": 0.25, "max_outstanding": 12, "queue_depth": 1024,
                            "footprint_pages": 64, "scale_at": 100, "scale_count": 2,
                            "scale_back_after": 200},
        "daemon-loopback": {"nodes": 36, "connections": 2, "window": 4,
                            "requests_per_connection": 150, "footprint_pages": 64,
                            "quantum": 64},
    },
}

READ_FRACTION = 0.7
REQUEST_BYTES = 64

#: Imported before any timer starts: set-up time excludes Python import,
#: and FabricService imports most of its stack lazily on first build.
PRELOAD = (
    "repro.topologies.registry", "repro.network.simulator", "repro.traffic.injection",
    "repro.traffic.patterns", "repro.workloads.interference", "repro.workloads.service",
    "repro.service.core", "repro.service.daemon", "repro.service.log",
    "repro.core.reconfig", "repro.core.routing", "repro.energy.power_gating",
    "repro.faults.detector", "repro.faults.injector", "repro.faults.layer",
    "repro.faults.recovery", "repro.memory.address", "repro.memory.migration",
    "repro.memory.node", "repro.network.elastic", "repro.network.policies",
    "repro.network.qos",
)


def preload() -> None:
    """Import every module the workloads use (outside the timers)."""
    import importlib

    for name in PRELOAD:
        importlib.import_module(name)


def sub_seed(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one input generator."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


#: Set-up repeats after a cycle: at most this many, and none once
#: this much set-up time is spent (seconds).
SETUP_REPEATS = 8
SETUP_BUDGET_S = 1.0


def repeat_setup(setup, first: tuple[float, float]) -> list[tuple[float, float]]:
    """*first* (the cycle's cold set-up) plus timed repeats of *setup*.

    *setup* builds a fresh stack and returns its build's interval of
    :func:`hostspeed.clock`; whatever it built is garbage before the
    next repeat starts.  Returns every interval, *first* included.
    """
    intervals = [first]
    spent = 0.0
    while len(intervals) <= SETUP_REPEATS and spent < SETUP_BUDGET_S:
        gc.collect()
        intervals.append(setup())
        spent += intervals[-1][1] - intervals[-1][0]
    return intervals


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stats_digest(*sims) -> str:
    """sha256 over the simulated counters of *sims* (run order)."""
    rows = []
    for sim in sims:
        s = sim.stats
        rows.append([
            s.sent, s.injected, s.delivered, s.dropped, s.measured_delivered,
            s.flit_hops, s.bit_hops, s.fallback_hops, s.total_hops,
            s.deadlock_recoveries, s.emergency_loans, s.queue_samples, s.queue_total,
            s.latency.percentile(50), s.latency.percentile(99), s.latency.mean,
            s.hops.mean, sim.logical_events, sim.link_events_elided,
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class WallStamps:
    """Host time from each packet's ``send`` to its delivery.

    Installed on the simulator instance (``send`` shadowed on the
    instance, a delivery callback registered through ``on_delivery``),
    so it costs one dict store and one pop per packet.  Every pass of
    a fabric workload carries it, so cold and warm per-packet times
    pay the same overhead.
    """

    def __init__(self, sim) -> None:
        #: (send, delivery) clock() pairs
        self.samples: list[tuple[float, float]] = []
        stamps: dict[int, float] = {}
        send = sim.send

        def stamped_send(packet, time=None):
            stamps[id(packet)] = clock()
            return send(packet, time)

        def delivered(packet, now):
            t0 = stamps.pop(id(packet), None)
            if t0 is not None:
                self.samples.append((t0, clock()))

        sim.send = stamped_send
        sim.on_delivery(delivered)


def _raw(**intervals) -> dict:
    """Raw seconds of clock intervals (or lists of them), for the record."""
    def seconds(iv):
        return [seconds(x) for x in iv] if isinstance(iv, list) else iv[1] - iv[0]

    return {name: seconds(iv) for name, iv in intervals.items()}


def conservation_checks(sim, label: str) -> list[str]:
    """``sent == delivered + dropped`` with nothing left in flight."""
    s = sim.stats
    problems = []
    if s.sent != s.delivered + s.dropped:
        problems.append(f"{label}: sent {s.sent} != delivered {s.delivered} + dropped {s.dropped}")
    if sim.pending_events:
        problems.append(f"{label}: {sim.pending_events} events left after drain")
    return problems


def _sim_counters(sims) -> dict:
    events = sum(sim.logical_events - sim.link_events_elided for sim in sims)
    elided = sum(sim.link_events_elided for sim in sims)
    return {"events_processed": events, "events_elided": elided,
            "logical_events": events + elided}


# -- fabric-uniform -----------------------------------------------------------

def _uniform_build(p, seed):
    """Topology and policy; returns them with the build's clock marks
    (start, topology built, policy built)."""
    from repro.topologies import registry

    t0 = clock()
    topo = registry.make_topology("SF", p["nodes"], seed=sub_seed(seed, "topology"))
    t1 = clock()
    policy = registry.make_policy(topo)
    return topo, policy, (t0, t1, clock())


def setup_uniform(p: dict, seed: int) -> tuple[float, float]:
    """One more fabric-uniform set-up; returns its interval."""
    _topo, _policy, marks = _uniform_build(p, seed)
    return marks[0], marks[2]


def _uniform_pass(topo, policy, p, seed):
    from repro.network.simulator import NetworkSimulator
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import make_pattern

    sim = NetworkSimulator(topo, policy, sample_free=True)
    wall = WallStamps(sim)
    injector = BernoulliInjector(
        sim, make_pattern("uniform_random", topo.active_nodes), p["rate"],
        warmup=p["warmup"], measure=p["measure"], payload_bytes=64, seed=seed,
    )
    injector.start()
    stop = p["warmup"] + p["measure"]
    t0 = clock()
    sim.run(until=stop)
    sim.run(until=stop + p["drain_limit"])
    return sim, (t0, clock()), wall


def fabric_uniform(p: dict, seed: int, tracer=None) -> dict:
    """SF uniform-random traffic: cold run, then warm repeats.

    The warm repeats reuse the built policy (its decision caches are
    filled) with new injection seeds.
    """
    t_start = clock()
    topo, policy, marks = _uniform_build(p, seed)
    sim, run_iv, wall = _uniform_pass(topo, policy, p, sub_seed(seed, "injection"))
    problems = conservation_checks(sim, "cold")
    total_iv = (t_start, clock())
    warm = []
    for rep in range(p["warm_repeats"]):
        warm_sim, warm_iv, _ = _uniform_pass(
            topo, policy, p, sub_seed(seed, f"warm-injection-{rep}"))
        problems += conservation_checks(warm_sim, f"warm {rep}")
        warm.append((warm_sim, warm_iv))
    sims = [sim] + [w for w, _ in warm]
    s = sim.stats
    p99 = s.latency.percentile(99)
    run_s = scaled(*run_iv)
    warm_s = [scaled(*iv) for _, iv in warm]
    out = {
        "setup_s": scaled(marks[0], marks[2]),
        "setup_iv": (marks[0], marks[2]),
        "total_s": scaled(*total_iv),
        "us_per_packet": run_s / s.delivered * 1e6,
        "warm_us_per_packet": sum(warm_s) / sum(w.stats.delivered for w, _ in warm) * 1e6,
        "us_per_request": run_s / s.sent * 1e6,
        "req_per_s": s.delivered / run_s,
        "wall_samples": [scaled(*iv) for iv in wall.samples],
        "sim_p50_cycles": s.latency.percentile(50),
        "sim_p99_cycles": p99,
        # Classless: every packet rides the one (foreground) class.
        "sim_fg_p99_cycles": p99,
        "attempted": sum(x.stats.sent for x in sims),
        "failed": sum(x.stats.dropped + x.stats.in_flight for x in sims),
        "checks": problems,
        "digest": stats_digest(*sims),
        "detail": {"build_topology_s": scaled(marks[0], marks[1]),
                   "build_policy_s": scaled(marks[1], marks[2]),
                   "run_s": run_s, "warm_run_s": warm_s,
                   "delivered": s.delivered, "logical_events": sim.logical_events,
                   "raw": _raw(setup=(marks[0], marks[2]), total=total_iv, run=run_iv,
                               warm=[iv for _, iv in warm])},
    }
    if tracer is not None:
        out["layers"] = fabric_layers(tracer, sims, class_p99={0: p99})
    return out


# -- fabric-incast-qos ----------------------------------------------------------

def setup_incast(p: dict, seed: int) -> tuple[float, float]:
    """One more fabric-incast-qos set-up (topology, and the policy as
    ``run_interference`` builds it); returns its interval."""
    from repro.topologies import registry
    from repro.workloads import interference

    t0 = clock()
    topo = registry.make_topology("SF", p["nodes"], seed=sub_seed(seed, "topology"))
    interference.make_policy(topo, adaptive=True)
    return t0, clock()


def _incast_pass(topo, p, seed):
    from repro.workloads import interference

    captured = {}

    def instrument(sim):
        captured["sim"] = sim
        captured["wall"] = WallStamps(sim)

    t0 = clock()
    result = interference.run_interference(
        topo, mode="incast", rate=p["rate"], fg_rate=p["fg_rate"], qos=True,
        warmup=p["warmup"], measure=p["measure"], drain_limit=p["drain_limit"],
        seed=seed, instrument=instrument,
    )
    return result, captured["sim"], (t0, clock()), captured["wall"]


def fabric_incast_qos(p: dict, seed: int, tracer=None) -> dict:
    """SF incast under the default 3-class QoS table: cold, then warm runs.

    Each run draws its own victim and sources (new injection seed) on
    the one topology.  ``run_interference`` builds its own policy, so
    the build time is taken by timing ``make_policy`` as the driver
    calls it and is kept out of the per-packet times.  The simulated
    latencies pool every run's measured packets: one incast victim's
    placement moves the tail too much for a single run to be steady.
    """
    from repro.network.stats import percentile as sim_percentile
    from repro.topologies import registry
    from repro.workloads import interference

    policy_ivs: list[tuple[float, float]] = []
    make_policy = interference.make_policy

    def timed_make_policy(*args, **kwargs):
        t0 = clock()
        try:
            return make_policy(*args, **kwargs)
        finally:
            policy_ivs.append((t0, clock()))

    interference.make_policy = timed_make_policy
    try:
        t_start = clock()
        topo = registry.make_topology("SF", p["nodes"], seed=sub_seed(seed, "topology"))
        t_topo = clock()
        result, sim, run_iv, wall = _incast_pass(topo, p, sub_seed(seed, "injection"))
        problems = conservation_checks(sim, "cold")
        total_iv = (t_start, clock())
        runs = [(result, sim, run_iv)]
        for rep in range(p["warm_repeats"]):
            warm_result, warm_sim, warm_iv, _ = _incast_pass(
                topo, p, sub_seed(seed, f"warm-injection-{rep}"))
            problems += conservation_checks(warm_sim, f"warm {rep}")
            runs.append((warm_result, warm_sim, warm_iv))
    finally:
        interference.make_policy = make_policy
    for idx, (res, _sim, _t) in enumerate(runs):
        if not res.drained:
            problems.append(f"incast run {idx} did not drain")
    # Per-packet times exclude each run's policy build.
    times = [(iv[1] - iv[0] - (built[1] - built[0])) * hostspeed.factor(*iv)
             for (_r, _s, iv), built in zip(runs, policy_ivs)]
    # Topology plus the first policy build, which runs inside the cold
    # run: one interval of their summed length, scaled by the slices
    # around the topology build.
    setup_iv = (t_start, t_topo + policy_ivs[0][1] - policy_ivs[0][0])
    sims = [x for _r, x, _t in runs]
    samples: dict[int, list[int]] = {}
    for res, _sim, _t in runs:
        for cls, values in res.samples.items():
            samples.setdefault(cls, []).extend(values)
    pooled = [v for values in samples.values() for v in values]
    class_p99 = {cls: sim_percentile(values, 99) for cls, values in samples.items()}
    s = sim.stats
    out = {
        "setup_s": scaled(*setup_iv),
        "setup_iv": setup_iv,
        "total_s": scaled(*total_iv),
        "us_per_packet": times[0] / s.delivered * 1e6,
        "warm_us_per_packet": sum(times[1:]) / sum(x.stats.delivered for x in sims[1:]) * 1e6,
        "us_per_request": times[0] / s.sent * 1e6,
        "req_per_s": s.delivered / times[0],
        "wall_samples": [scaled(*iv) for iv in wall.samples],
        "sim_p50_cycles": sim_percentile(pooled, 50),
        "sim_p99_cycles": sim_percentile(pooled, 99),
        "sim_fg_p99_cycles": class_p99[0],
        "attempted": sum(x.stats.sent for x in sims),
        "failed": sum(x.stats.dropped + x.stats.in_flight for x in sims),
        "checks": problems,
        "digest": stats_digest(*sims),
        "detail": {"build_topology_s": scaled(t_start, t_topo),
                   "build_policy_s": [scaled(*iv) for iv in policy_ivs],
                   "run_s": times, "delivered": s.delivered,
                   "raw": _raw(setup=setup_iv, total=total_iv,
                               runs=[iv for _r, _s, iv in runs], policy=policy_ivs),
                   "class_counts": {c: len(v) for c, v in samples.items()}},
    }
    if tracer is not None:
        out["layers"] = fabric_layers(tracer, sims, class_p99=class_p99)
    return out


# -- service-elastic ------------------------------------------------------------

def _service_schedule(p: dict, seed: int, base: int) -> list[dict]:
    from repro.workloads.service import synthetic_schedule

    entries = synthetic_schedule(
        tenants=p["tenants"], requests_per_tenant=p["requests_per_tenant"],
        rate=p["rate"], footprint_pages=p["footprint_pages"],
        read_fraction=READ_FRACTION, size=REQUEST_BYTES, seed=seed,
        scale_at=p["scale_at"], scale_count=p["scale_count"],
        scale_back_after=p["scale_back_after"],
    )
    for entry in entries:
        entry["t"] += base
    return entries


def _service_build(p: dict, seed: int):
    """The offline FabricService; returns it with its build's interval."""
    from repro.service.core import FabricService

    t0 = clock()
    service = FabricService(
        nodes=p["nodes"], topology_seed=sub_seed(seed, "topology"),
        seed=sub_seed(seed, "service"), footprint_pages=p["footprint_pages"],
        max_outstanding=p["max_outstanding"], queue_depth=p["queue_depth"],
    )
    return service, (t0, clock())


def setup_service(p: dict, seed: int) -> tuple[float, float]:
    """One more service-elastic set-up; returns its interval."""
    return _service_build(p, seed)[1]


def service_elastic(p: dict, seed: int, tracer=None) -> dict:
    """Offline multi-tenant service with a scale-down/up, then a warm pass.

    Open loop in simulated time: the schedule fixes each request's
    submit cycle, and latency counts from it, admission-queue wait
    included.  The warm pass drives a second schedule (new seed) on
    the same service after the first drain.
    """
    from repro.service import log

    t_start = clock()
    service, setup_iv = _service_build(p, seed)
    sim = service.sim
    # Fabric packets, as on the fabric workloads: a request's own host
    # latency is mostly the admission queue, whose middle sits on a
    # steep slope that moves with every reconfiguration pause.
    wall = WallStamps(sim)
    cold_entries = _service_schedule(p, sub_seed(seed, "schedule"), 0)
    t0 = clock()
    log.drive(service, cold_entries)
    report = service.drain()
    run_iv = (t0, clock())
    snap = service.snapshot()
    problems = _service_checks(service, report, "cold")
    total_iv = (t_start, clock())
    cold_wall = list(wall.samples)
    delivered, completed, submitted = sim.stats.delivered, snap["completed"], snap["submitted"]

    warm_entries = _service_schedule(p, sub_seed(seed, "warm-schedule"), sim.now + 1)
    t0 = clock()
    log.drive(service, warm_entries)
    warm_report = service.drain()
    warm_iv = (t0, clock())
    problems += _service_checks(service, warm_report, "warm")
    final = service.snapshot()
    failed = sum(1 for _seq, status, _lat in service.completions if status != "done")
    run_s, warm_s = scaled(*run_iv), scaled(*warm_iv)
    out = {
        "setup_s": scaled(*setup_iv),
        "setup_iv": setup_iv,
        "total_s": scaled(*total_iv),
        "us_per_packet": run_s / delivered * 1e6,
        "warm_us_per_packet": warm_s / (sim.stats.delivered - delivered) * 1e6,
        "us_per_request": run_s / submitted * 1e6,
        "req_per_s": completed / run_s,
        "wall_samples": [scaled(*iv) for iv in cold_wall],
        # Both passes: the tenant sketches accumulate across drains.
        "sim_p50_cycles": warm_report["latency"]["p50"],
        "sim_p99_cycles": warm_report["latency"]["p99"],
        # Request latency above; the fabric packets' own p99 here (all
        # service traffic rides class 0 without a QoS table).
        "sim_fg_p99_cycles": sim.stats.latency.percentile(99),
        "attempted": final["submitted"],
        "failed": failed + final["dropped"],
        "checks": problems,
        "digest": hashlib.sha256(
            json.dumps(service.digest(), sort_keys=True).encode()
        ).hexdigest(),
        "detail": {"build_service_s": scaled(*setup_iv), "run_s": run_s, "warm_run_s": warm_s,
                   "raw": _raw(setup=setup_iv, total=total_iv, run=run_iv, warm=warm_iv),
                   "submitted": submitted, "completed": completed, "delivered": delivered,
                   "queued_total": snap["queued_total"], "shed": final["shed"],
                   "timeouts": final["timeouts"], "migrations": final["migrations"]},
    }
    if tracer is not None:
        out["layers"] = service_layers(tracer, service, class_p99={0: out["sim_fg_p99_cycles"]})
    return out


def _service_checks(service, report: dict, label: str) -> list[str]:
    problems = []
    if not report["all_conserved"]:
        keys = ("conserved", "page_conservation", "requests_conserved", "outstanding")
        problems.append(f"{label}: drain not conserved: " + json.dumps(
            {k: report[k] for k in keys}))
    problems += conservation_checks(service.sim, label)
    return problems


# -- per-layer metrics ----------------------------------------------------------

ARB_CLASSES = {0: "fg", 1: "bulk", 2: "bg"}


def _arb(sims, class_p99: dict) -> dict:
    samples = sum(sim.stats.queue_samples for sim in sims)
    hops = sum(sim.stats.total_hops for sim in sims)
    out = {
        "arb.mean_queue_depth": sum(sim.stats.queue_total for sim in sims) / samples
        if samples else 0.0,
        "arb.emergency_loans": sum(sim.stats.emergency_loans for sim in sims),
        "arb.deadlock_recoveries": sum(sim.stats.deadlock_recoveries for sim in sims),
        "arb.fallback_hop_ratio": sum(sim.stats.fallback_hops for sim in sims) / hops
        if hops else 0.0,
    }
    for cls, name in ARB_CLASSES.items():
        out[f"arb.{name}.p99_cycles"] = float(class_p99.get(cls, 0.0))
    return out


def _common_layers(tracer, sims) -> dict:
    def s(key: str) -> float:
        return tracer.ns.get(key, 0) / 1e9

    def c(key: str) -> int:
        return tracer.calls.get(key, 0)

    counters = _sim_counters(sims)
    run_s = s("sim.run")
    forward = c("routing.forward")
    out = {
        "build.topology_s": s("build.topology"),
        "build.policy_s": s("build.policy"),
        "build.service_s": s("build.service"),
        "routing.forward_calls": forward,
        "routing.forward_s": s("routing.forward"),
        "routing.compute_calls": c("routing.compute"),
        "routing.miss_ratio": c("routing.compute") / forward if forward else 0.0,
        "sim.run_s": run_s,
        "sim.self_s": tracer.self_ns.get("sim", 0) / 1e9,
        "sim.events_processed": counters["events_processed"],
        "sim.events_elided": counters["events_elided"],
        "sim.logical_events": counters["logical_events"],
        "sim.us_per_event": run_s / counters["events_processed"] * 1e6
        if counters["events_processed"] else 0.0,
        "sim.send_calls": c("sim.send"),
    }
    for module in SCHED_MODULES + ("other",):
        out[f"sched.{module}.calls"] = c(f"sched.{module}")
        out[f"sched.{module}.s"] = s(f"sched.{module}")
    out.update({
        "service.submit_calls": c("service.submit"),
        "service.submit_s": s("service.submit"),
        "service.delivery_calls": c("deliver.service.core"),
        "service.delivery_s": s("deliver.service.core"),
        "service.drain_s": s("service.drain"),
        "dram.calls": c("dram.service_bulk"),
        "dram.s": s("dram.service_bulk"),
        "reconfig.events": c("reconfig.event"),
        "reconfig.s": s("reconfig.event"),
        "reconfig.rebuild_calls": c("reconfig.rebuild"),
        "reconfig.rebuild_s": s("reconfig.rebuild"),
        "daemon.decode_calls": c("daemon.decode"),
        "daemon.decode_s": s("daemon.decode"),
        "daemon.encode_calls": c("daemon.encode"),
        "daemon.encode_s": s("daemon.encode"),
        "daemon.quanta": c("daemon.quantum"),
        "daemon.quantum_s": s("daemon.quantum"),
        "daemon.idle_s": 0.0,
    })
    for key in ("service.queued_total", "service.shed", "service.stalled",
                "service.forwarded", "service.timeouts", "migration.batches",
                "migration.pages", "migration.packets"):
        out[key] = 0
    return out


def fabric_layers(tracer, sims, class_p99: dict) -> dict:
    """Per-layer metrics of a fabric workload's traced cycle."""
    out = _common_layers(tracer, sims)
    out.update(_arb(sims, class_p99))
    return out


def service_layers(tracer, service, class_p99: dict, idle_s: float = 0.0) -> dict:
    """Per-layer metrics of a service-backed traced cycle."""
    out = _common_layers(tracer, [service.sim])
    out.update(_arb([service.sim], class_p99))
    records = service.engine.records
    out.update({
        "service.queued_total": service.queued_total,
        "service.shed": service.shed_total,
        "service.stalled": service.stalled,
        "service.forwarded": service.forwarded,
        "service.timeouts": service.timeouts,
        "migration.batches": len(records),
        "migration.pages": sum(r.pages_moved for r in records),
        "migration.packets": sum(r.chunks_sent for r in records),
        "daemon.idle_s": idle_s,
    })
    return out


CYCLES = {
    "fabric-uniform": fabric_uniform,
    "fabric-incast-qos": fabric_incast_qos,
    "service-elastic": service_elastic,
}

SETUPS = {
    "fabric-uniform": setup_uniform,
    "fabric-incast-qos": setup_incast,
    "service-elastic": setup_service,
}
