"""Host speed, read from a reference kernel run between the workload's steps.

A vCPU of a shared host changes speed by up to 2x within a second or
two, and the two vCPUs of one VM do so independently of each other.  A
host time measured in one 30 s run therefore differs from the same
time measured a minute later by more than any regression bound, and a
reference measured before or after the run, or in another process,
does not follow it.

So every process of an untraced cycle runs a fixed reference kernel
(:func:`_kernel`: a small discrete-event loop in the simulator's
style) for well under a millisecond every :data:`INTERVAL_S` of wall time,
from a ``SIGALRM`` handler, and records how long each slice took.
:func:`clock` is ``perf_counter()`` minus the time spent in slices, so
the slices never count as the workload's time.  :func:`scaled` turns an
interval of that clock into *reference-speed time*: the interval times
``REF_SLICE_S`` over the mean slice duration measured during it, i.e.
how long the interval would have taken on a host where one slice takes
``REF_SLICE_S``.  Every host-time end-to-end metric is reported so;
the cycle record keeps the raw value beside it.

Traced cycles do not start the ticker: the tracer's spans would absorb
the slices.  There :func:`clock` is plain ``perf_counter()`` and
:func:`scaled` returns the raw interval.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import time

#: Wall-clock period of the reference slices (seconds).
INTERVAL_S = 0.025
#: Duration of one slice at reference speed (seconds): roughly this
#: kernel's slice on a 2-core shared Intel Xeon VM in its fast periods.
REF_SLICE_S = 0.0007
#: An interval with fewer slices than this in it is scaled by the
#: slices nearest to its midpoint instead.
MIN_SLICES = 10

#: Events per slice, and the size of the kernel's little network.
_KERNEL_EVENTS = 600
_NODES = 64
_PORTS = 4096
_CREDITS = 2
_IN_FLIGHT = 16


class _Port:
    __slots__ = ("credits", "queue", "sent")

    def __init__(self) -> None:
        self.credits = _CREDITS
        self.queue: list = []
        self.sent = 0


class _Packet:
    __slots__ = ("src", "dst", "hops", "born")

    def __init__(self, src: int, dst: int, born: int) -> None:
        self.src = src
        self.dst = dst
        self.hops = 0
        self.born = born


_routes: dict[tuple[int, int], _Port] = {}


def _kernel() -> int:
    """One reference slice: a fixed, deterministic amount of work.

    A small discrete-event loop in the simulator's style: an event heap,
    packets routed hop by hop through ports with credits and queues,
    new packets made as old ones arrive.  Every slice starts from the
    same state and processes :data:`_KERNEL_EVENTS` events.
    """
    routes = _routes
    push, pop = heapq.heappush, heapq.heappop
    rng = random.Random(12345)
    heap: list = []
    touched: list[_Port] = []
    for i in range(_IN_FLIGHT):
        push(heap, (i, i, 0, _Packet(i, (i * 13) % _NODES, i)))
    seq = _IN_FLIGHT
    latency = 0
    for _ in range(_KERNEL_EVENTS):
        now, _seq, kind, packet = pop(heap)
        port = routes[packet.src, packet.dst]
        if kind == 0:  # arrival: send on a free credit, else queue
            touched.append(port)
            if port.credits and not port.queue:
                port.credits -= 1
                port.sent += 1
                packet.hops += 1
                push(heap, (now + 1 + (packet.hops & 1), seq, 1, packet))
            else:
                port.queue.append(packet)
                continue
        else:  # the link is free again
            port.credits += 1
            if port.queue:
                push(heap, (now + 1, seq, 0, port.queue.pop(0)))
                seq += 1
            if packet.hops < 3:
                packet.src = (packet.src * 7 + 1) % _NODES
                push(heap, (now + 1, seq, 0, packet))
            else:
                latency += now - packet.born
                push(heap, (now + 1, seq, 0,
                            _Packet(packet.dst, rng.randrange(_NODES), now)))
        seq += 1
    for port in touched:
        port.credits = _CREDITS
        port.queue.clear()
    return latency


class _Speed:
    def __init__(self) -> None:
        #: clock() at each slice's start, and the running sum of slice
        #: durations (``cum[i]`` = the first *i* slices)
        self.starts: list[float] = []
        self.cum: list[float] = [0.0]
        self.excluded = 0.0
        self.running = False

    def tick(self, _signum, _frame) -> None:
        # A collection the slice's allocations happen to trigger would
        # walk the workload's whole heap inside the slice.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0 - self.excluded)
        self.cum.append(self.cum[-1] + (t1 - t0))
        self.excluded += t1 - t0


_SPEED = _Speed()


def start() -> None:
    """Start the reference slices in this process (main thread only)."""
    if _SPEED.running:
        return
    if not _routes:
        ports = [_Port() for _ in range(_PORTS)]
        for a in range(_NODES):
            for b in range(_NODES):
                _routes[a, b] = ports[(a * 31 + b * 17) % _PORTS]
    _SPEED.running = True
    signal.signal(signal.SIGALRM, _SPEED.tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Stop the slices; the samples taken so far stay readable."""
    if _SPEED.running:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _SPEED.running = False


def clock() -> float:
    """``perf_counter()`` without the time spent in reference slices."""
    while True:
        excluded = _SPEED.excluded
        now = time.perf_counter()
        if _SPEED.excluded == excluded:
            return now - excluded


def mean_slice(v0: float, v1: float) -> float | None:
    """Mean slice duration over [v0, v1] of :func:`clock` (None: no slices).

    An interval holding fewer than :data:`MIN_SLICES` slices uses the
    ones nearest to its midpoint.
    """
    starts, cum = _SPEED.starts, _SPEED.cum
    if not starts:
        return None
    lo = bisect.bisect_left(starts, v0)
    hi = bisect.bisect_right(starts, v1)
    if hi - lo < MIN_SLICES:
        mid = bisect.bisect_left(starts, (v0 + v1) / 2)
        lo = max(0, mid - MIN_SLICES // 2)
        hi = min(len(starts), lo + MIN_SLICES)
        lo = max(0, hi - MIN_SLICES)
    return (cum[hi] - cum[lo]) / (hi - lo)


def factor(v0: float, v1: float) -> float:
    """Reference-speed seconds per raw second over [v0, v1]."""
    mean = mean_slice(v0, v1)
    return 1.0 if mean is None else REF_SLICE_S / mean


def scaled(v0: float, v1: float) -> float:
    """The interval [v0, v1] of :func:`clock` in reference-speed seconds."""
    return (v1 - v0) * factor(v0, v1)


def summary() -> dict:
    """Slice count and mean duration, for the cycle record."""
    count = len(_SPEED.starts)
    return {"slices": count,
            "mean_slice_s": _SPEED.cum[-1] / count if count else None,
            "excluded_s": _SPEED.excluded}
