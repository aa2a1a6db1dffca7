"""Span tracer and per-layer ledger for the traced benchmark run.

The traced run wraps the public functions of each layer of ``repro``
from the outside (see :func:`install`) and records one span per call:
name, layer, start, end and the span that was open when it started.
Self time is computed online — a span's duration minus the time its
direct children cover — so the ledger is exact over every call even
though the Chrome trace file keeps only the first ``KEEP_PER_NAME``
spans of each name.

Nothing here runs in an untraced run: the end-to-end metrics never
pay for the wrappers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from types import SimpleNamespace

#: The benchmark's layers, in ledger order (see README.md).
LAYERS = ("build", "routing", "sim", "arb", "service", "dram", "reconfig", "daemon")

#: Module -> layer, first match wins; a prefix matches itself and its
#: submodules.  Modules not listed (the workload drivers, the simulator,
#: traffic injection) belong to ``sim``.
MODULE_LAYERS = (
    ("repro.topologies", "build"),
    ("repro.core.topology", "build"),
    ("repro.core.coordinates", "build"),
    ("repro.core.routing_table", "build"),
    ("repro.core.routing", "routing"),
    ("repro.network.policies", "routing"),
    ("repro.network.qos", "arb"),
    ("repro.service.daemon", "daemon"),
    ("repro.service", "service"),
    # The fault detector and recovery stack run inside FabricService
    # as part of serving requests (heartbeats, retransmits).
    ("repro.faults", "service"),
    ("repro.memory.node", "dram"),
    ("repro.memory.dram", "dram"),
    ("repro.core.reconfig", "reconfig"),
    ("repro.network.elastic", "reconfig"),
    ("repro.memory.migration", "reconfig"),
    ("repro.energy", "reconfig"),
)

#: Callback modules that get their own ``sched.<module>`` metrics; any
#: other module's scheduled callbacks are pooled as ``sched.other``.
SCHED_MODULES = (
    "traffic.injection",
    "workloads.interference",
    "service.core",
    "memory.migration",
    "network.elastic",
    "faults.detector",
    "faults.injector",
    "faults.layer",
    "faults.recovery",
)

#: Spans of one name written to the Chrome trace file; the ledger
#: itself always counts every span.
KEEP_PER_NAME = 4000


def layer_of(module: str | None) -> str:
    """The ledger layer that owns *module* (``sim`` when unlisted)."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "sim"


def _callback_module(callback) -> str:
    while isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__module__", None) or "?"


class Tracer:
    """In-memory span recorder with exact per-layer self time.

    Spans must nest (the benchmark wraps only synchronous calls), which
    :meth:`end` checks: a span closed out of order raises instead of
    silently misattributing time.
    """

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.clock = time.perf_counter_ns
        self._stack: list[list] = []
        self._next_id = 1
        self._depth: dict[str, int] = defaultdict(int)
        #: per layer: self ns, outermost-span ns, outermost-span calls
        self.self_ns: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        #: per span name / group: outermost calls and inclusive ns
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = defaultdict(int)
        self.spans_dropped = 0
        self.window: tuple[int, int] | None = None

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, layer: str, group: str | None = None) -> list:
        """Open a span; returns the frame :meth:`end` must close."""
        depth = self._depth
        depth[layer] += 1
        depth[name] += 1
        if group is not None:
            depth[group] += 1
        frame = [self._next_id, name, layer, group, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[4] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        """Close *frame*, charging self time to its layer."""
        t1 = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(
                f"span {frame[1]!r} closed while {top[1]!r} was open"
            )
        span_id, name, layer, group, t0, child_ns = frame
        dur = t1 - t0
        self.self_ns[layer] += dur - child_ns
        depth = self._depth
        depth[layer] -= 1
        if depth[layer] == 0:
            self.busy_ns[layer] += dur
            self.layer_calls[layer] += 1
        for key in (name, group) if group is not None else (name,):
            depth[key] -= 1
            if depth[key] == 0:
                self.calls[key] += 1
                self.ns[key] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[5] += dur
            parent_id = parent[0]
        else:
            self.root_ns += dur
            parent_id = 0
        if self._kept[name] < KEEP_PER_NAME:
            self._kept[name] += 1
            self.spans.append((span_id, parent_id, name, layer, t0, t1))
        else:
            self.spans_dropped += 1

    def open_in(self, layer: str) -> bool:
        """True while any span of *layer* is open."""
        return self._depth[layer] > 0

    def wrap(self, fn, name: str, layer: str, group: str | None = None):
        """*fn* with every call recorded as one span."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            frame = begin(name, layer, group)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        traced.__wrapped__ = fn
        return traced

    def wrap_callback(self, callback, kind: str):
        """Wrap a simulator callback, named and layered by its module."""
        module = _callback_module(callback)
        short = module[len("repro."):] if module.startswith("repro.") else module
        if kind == "sched":
            name = f"sched.{short}" if short in SCHED_MODULES else "sched.other"
        else:
            name = f"{kind}.{short}"
        return self.wrap(callback, name, layer_of(module))

    # -- results -------------------------------------------------------------

    def ledger(self) -> dict:
        """Per-layer calls, busy, self and share over the traced window.

        ``unattributed`` is the window minus every layer's self time, so
        the rows sum to the window exactly (integer nanoseconds).
        """
        if self.window is None:
            raise RuntimeError("ledger() needs the traced window (set .window)")
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        start, stop = self.window
        total = stop - start
        rows = {}
        for layer in LAYERS:
            rows[layer] = {
                "calls": self.layer_calls.get(layer, 0),
                "busy_ns": self.busy_ns.get(layer, 0),
                "self_ns": self.self_ns.get(layer, 0),
            }
        extra = set(self.self_ns) - set(LAYERS)
        if extra:
            raise RuntimeError(f"spans outside the ledger layers: {sorted(extra)}")
        attributed = sum(row["self_ns"] for row in rows.values())
        unattributed = total - attributed
        if unattributed < 0 or attributed != self.root_ns:
            raise RuntimeError(
                f"ledger does not close: window {total} ns, attributed "
                f"{attributed} ns, root spans {self.root_ns} ns"
            )
        rows["unattributed"] = {"calls": 0, "busy_ns": unattributed, "self_ns": unattributed}
        for row in rows.values():
            row["share"] = row["self_ns"] / total if total else 0.0
        return {"total_ns": total, "rows": rows}

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""
        base = self.window[0] if self.window else 0
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": f"perfbench {self.workload}"}},
        ]
        for span_id, parent_id, name, layer, t0, t1 in sorted(self.spans, key=lambda s: s[4]):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - base) / 1000.0, "dur": (t1 - t0) / 1000.0,
                "args": {"id": span_id, "parent": parent_id,
                         "workload": self.workload, "run_id": self.run_id},
            })
        other = {"workload": self.workload, "run_id": self.run_id,
                 "spans_kept": len(self.spans), "spans_dropped": self.spans_dropped}
        return {"traceEvents": events, "displayTimeUnit": "ns", "otherData": other}


def install(tracer: Tracer, daemon: bool = False) -> None:
    """Wrap every layer's public boundary for the rest of this process.

    Wrappers go on the public methods of the classes the layers build
    (their instances are created inside ``repro``, out of reach of the
    benchmark) and on callbacks at the simulator's registration points.
    The traced run happens in a process of its own, so nothing is
    restored.  ``daemon=True`` also times ``FabricService.advance`` /
    ``advance_to`` as daemon pump quanta, which is what only the daemon
    calls them for.
    """
    from repro.core import routing as routing_mod
    from repro.core.reconfig import ReconfigurationManager
    from repro.memory.node import MemoryNode
    from repro.network.policies import GreedyPolicy
    from repro.network.simulator import NetworkSimulator
    from repro.service import daemon as daemon_mod
    from repro.service import log as log_mod
    from repro.service.core import FabricService
    from repro.topologies import registry
    from repro.workloads import interference

    wrap = tracer.wrap

    registry.make_topology = wrap(registry.make_topology, "build.topology", "build")
    registry.make_policy = wrap(registry.make_policy, "build.policy", "build")
    interference.make_policy = registry.make_policy
    FabricService.__init__ = wrap(FabricService.__init__, "build.service", "build")

    GreedyPolicy.forward = wrap(GreedyPolicy.forward, "routing.forward", "routing")
    GreedyPolicy.select_vc = wrap(GreedyPolicy.select_vc, "routing.select_vc", "routing")
    greedy = routing_mod.GreediestRouting
    for fn in ("next_hop", "kernel_next_hop", "candidate_set"):
        setattr(greedy, fn, wrap(getattr(greedy, fn), f"routing.{fn}", "routing", "routing.compute"))
    adaptive = routing_mod.AdaptiveGreediestRouting
    adaptive.adaptive_next_hop = wrap(
        adaptive.adaptive_next_hop, "routing.adaptive_next_hop", "routing", "routing.compute"
    )

    rebuild = greedy.rebuild

    def traced_rebuild(self, *args, **kwargs):
        # Table builds inside a constructor are set-up, not reconfiguration.
        if tracer.open_in("build"):
            name, layer = "build.rebuild", "build"
        else:
            name, layer = "reconfig.rebuild", "reconfig"
        frame = tracer.begin(name, layer)
        try:
            return rebuild(self, *args, **kwargs)
        finally:
            tracer.end(frame)

    greedy.rebuild = traced_rebuild

    NetworkSimulator.__init__ = wrap(NetworkSimulator.__init__, "sim.init", "sim")
    NetworkSimulator.run = wrap(NetworkSimulator.run, "sim.run", "sim")
    NetworkSimulator.send = wrap(NetworkSimulator.send, "sim.send", "sim")
    schedule = NetworkSimulator.schedule
    on_delivery = NetworkSimulator.on_delivery
    NetworkSimulator.schedule = lambda self, time, callback: schedule(
        self, time, tracer.wrap_callback(callback, "sched")
    )
    NetworkSimulator.on_delivery = lambda self, callback: on_delivery(
        self, tracer.wrap_callback(callback, "deliver")
    )

    FabricService.submit = wrap(FabricService.submit, "service.submit", "service")
    FabricService.drain = wrap(FabricService.drain, "service.drain", "service")
    FabricService.snapshot = wrap(FabricService.snapshot, "service.snapshot", "service")
    log_mod.drive = wrap(log_mod.drive, "service.drive", "service")
    MemoryNode.service_bulk = wrap(MemoryNode.service_bulk, "dram.service_bulk", "dram")
    for fn in ("power_gate", "power_on"):
        setattr(ReconfigurationManager, fn, wrap(
            getattr(ReconfigurationManager, fn), f"reconfig.{fn}", "reconfig", "reconfig.event"
        ))

    if daemon:
        FabricService.advance = wrap(
            FabricService.advance, "daemon.advance", "daemon", "daemon.quantum"
        )
        FabricService.advance_to = wrap(
            FabricService.advance_to, "daemon.advance_to", "daemon", "daemon.quantum"
        )
        daemon_mod.json = SimpleNamespace(
            loads=wrap(json.loads, "daemon.decode", "daemon"),
            dumps=wrap(json.dumps, "daemon.encode", "daemon"),
        )


def time_idle(tracer: Tracer, daemon) -> dict:
    """Accumulate the pump's idle waits (outside the span stack).

    The pump awaits its wake event while other coroutines run, so an
    idle wait cannot be a span without swallowing their spans; it is
    counted here instead and shows in the ledger as ``unattributed``.
    """
    idle = {"ns": 0, "waits": 0}
    event = daemon._wake
    wait = event.wait
    clock = tracer.clock

    async def timed_wait():
        t0 = clock()
        try:
            return await wait()
        finally:
            idle["ns"] += clock() - t0
            idle["waits"] += 1

    event.wait = timed_wait
    return idle


def format_ledger(ledger: dict, overhead: float) -> str:
    """The ledger as a fixed-width text table."""
    total = ledger["total_ns"]
    lines = [f"{'layer':<13}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'share':>8}"]
    for layer, row in ledger["rows"].items():
        lines.append(
            f"{layer:<13}{row['calls']:>10}{row['busy_ns'] / 1e9:>11.4f}"
            f"{row['self_ns'] / 1e9:>11.4f}{row['share']:>8.1%}"
        )
    lines.append(f"{'total':<13}{'':>10}{'':>11}{total / 1e9:>11.4f}{1:>8.1%}")
    lines.append(f"tracing overhead: traced/untraced total_s = {overhead:.3f}")
    return "\n".join(lines)
