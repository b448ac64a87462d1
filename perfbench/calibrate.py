"""Host-speed calibration: the benchmark's fixed yardstick.

The 2-CPU hosts this benchmark runs on share their cores with other
tenants, and the interpreter's speed swings by up to ~1.9x within
seconds and drifts by 10-20 % over minutes (a neighbour on the sibling
hyper-thread slows every instruction; CPU time slows exactly as much as
wall time, so ``process_time`` does not help). A fixed, interpreter-bound
kernel that lives here, outside the program, slows by about as much as
the simulator does at the same moment. Timing it right beside each
measured interval and scaling the interval by ``REFERENCE_S / kernel
time`` turns host seconds into *reference seconds*: what the interval
would have taken on a host where :func:`kernel` takes ``REFERENCE_S``.

A faster program still reads faster (the kernel does not change with the
program); a busier neighbour mostly no longer does. The match is not
exact: the small kernel speeds up a little more than the simulator on a
fast host, so reference times read slightly higher then (fig12, seeds
61-70: host sweeps of 10.4-15.5 s gave 13.8-15.4 reference s).
"""

from __future__ import annotations

import bisect
import gc
import heapq
import threading
import time
from statistics import mean
from typing import List, Tuple

#: Kernel time that defines a reference second (an unloaded core of the
#: 2-CPU container the benchmark was written on takes 2.6-2.8 ms; a
#: loaded one 4.5-5 ms).
REFERENCE_S = 0.004


class _Node:
    __slots__ = ("x", "peers")

    def __init__(self, x: float):
        self.x = x
        self.peers: List[int] = []

    def step(self, v: float) -> float:
        self.x = self.x * 0.999 + v * 0.001
        return self.x


def kernel(n: int = 3000) -> float:
    """Fixed interpreter work shaped like an event loop: heap pops and
    pushes, a dict lookup, a method call, float math, small lists."""
    nodes = {i: _Node(i * 0.5) for i in range(64)}
    heap = [(float(i), i) for i in range(64)]
    heapq.heapify(heap)
    acc = 0.0
    for k in range(n):
        t, i = heapq.heappop(heap)
        node = nodes[i]
        acc += node.step(t) ** 0.5
        node.peers.append(k)
        if len(node.peers) > 8:
            node.peers = node.peers[4:]
        heapq.heappush(heap, (t + 1.0 + (k % 7) * 0.125, (i * 31 + k) % 64))
    return acc


def sample() -> float:
    """CPU seconds one :func:`kernel` call takes now, with no GC inside.
    Thread CPU time, not wall time: while the fleet runs, the sampling
    thread may wait for a CPU that the program's own processes hold, and
    that wait says nothing about the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        kernel()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(host_s: float, *kernel_s: float) -> float:
    """``host_s`` in reference seconds, given kernel times taken beside it."""
    return host_s * REFERENCE_S / mean(kernel_s)


class Background:
    """Samples the kernel every ``period`` seconds on a thread, for
    intervals that run in other processes (the fleet). :meth:`scale`
    gives the factor for a ``perf_counter`` interval."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "Background":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and wait for the thread; safe to call twice."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _loop(self) -> None:
        while True:
            t = time.perf_counter()
            self.samples.append((t, sample()))
            if self._stop.wait(self.period):
                return

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the mean kernel time sampled in
        [t0, t1], widened to the nearest sample on each side."""
        times = [t for t, _ in self.samples]
        lo = max(0, bisect.bisect_left(times, t0) - 1)
        hi = min(len(times), bisect.bisect_right(times, t1) + 1)
        window = [s for _, s in self.samples[lo:hi]]
        if not window:
            raise RuntimeError("no calibration sample near the interval")
        return REFERENCE_S / mean(window)
