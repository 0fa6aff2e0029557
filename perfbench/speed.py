"""How fast this machine runs Python right now, measured with a fixed kernel.

The benchmark reports its times at one reference speed. The kernel is
timed between consecutive ops and, from a SIGALRM handler whose time is
not counted, every SAMPLE_INTERVAL_S while an op runs. An op's wall time
is multiplied by the mean of NOMINAL_NS over the kernel times sampled
just before it, while it ran and just after it. On a shared host the
speed of a core can change by a factor of two within minutes, which no
bound on raw wall times can absorb; the kernel slows down with it, and
the ratio does not. A value in reference seconds is the wall time the op
takes when the kernel takes NOMINAL_NS.

The kernel does the kind of work ptslab does (small frozen dataclasses,
tuple-keyed dicts, sets, recursion and string building) and touches
nothing in ptslab, so no change to ptslab can move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

# about the fastest time of kernel_ns() on the 2-core Intel Xeon (Linux,
# Python 3.11) the first baseline was measured on; it only fixes the unit
NOMINAL_NS = 800_000
REPEATS = 3
SAMPLE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _render(node: _Node, depth: int, seen: dict) -> str:
    seen[(node.tag, depth)] = hash(node)
    return "(" + node.tag + "".join(_render(k, depth + 1, seen) for k in node.kids) + ")"


def _kernel() -> int:
    total = 0
    for r in range(12):
        leaves = tuple(_Node(f"x{i}", ()) for i in range(12))
        tree = _Node("root", tuple(_Node(f"n{i}", leaves[i : i + 3]) for i in range(10)))
        seen: dict = {}
        text = _render(tree, r, seen)
        total += len(text) + len(seen) + len({t for t, _ in seen})
    return total


def kernel_ns() -> int:
    """Median time of a few runs of the kernel, in nanoseconds."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - t)
    return int(statistics.median(times))


def to_reference(wall_ns: float, kernel_before_ns: int, kernel_after_ns: int) -> float:
    """Wall time rescaled to the reference speed measured around it."""
    return wall_ns * NOMINAL_NS * 2 / (kernel_before_ns + kernel_after_ns)


class Sampler:
    """Times calls one after another and samples the kernel around and during them."""

    def __init__(self):
        self._times: list[int] = []  # perf_counter_ns of each sample
        self._kernels: list[int] = []
        self._paused_ns = 0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()

    def _sample(self) -> None:
        self._times.append(time.perf_counter_ns())
        self._kernels.append(kernel_ns())

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter_ns()
        _kernel()
        done = time.perf_counter_ns()
        self._times.append(t)
        self._kernels.append(done - t)
        self._paused_ns += done - t

    def time_call(self, fn):
        """Run fn(); return (its result or exception, start ns, end ns, wall ns).
        The wall time leaves out the sampling done while fn ran."""
        self._paused_ns = 0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter_ns()
        try:
            outcome = fn()
        except Exception as e:  # the caller decides what a raising call means
            outcome = e
        finally:
            end = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = end - start - self._paused_ns
        self._sample()
        return outcome, start, end, wall

    def reference_ns(self, start: int, end: int, wall: int) -> float:
        """A call's wall time at the reference speed measured around and during it."""
        # the samples taken during the call, and the one on each side of it
        lo = max(0, bisect.bisect_left(self._times, start) - 1)
        hi = bisect.bisect_right(self._times, end) + 1
        return wall * statistics.fmean(NOMINAL_NS / k for k in self._kernels[lo:hi])

    def speed(self) -> float:
        """The median speed over all samples, as a multiple of the reference."""
        return NOMINAL_NS / statistics.median(self._kernels)
