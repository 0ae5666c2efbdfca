"""Host-speed calibration for the timed passes.

The benchmark runs on shared machines whose speed drifts by half or more
over seconds to minutes (neighbours on the same cores, frequency changes),
which no in-run statistic of a wall-clock time removes.  So while a pass
runs, a :class:`Ticker` interrupts it every ``INTERVAL_S`` with ``SIGALRM``
and, in the main thread between two bytecodes of the program, times a fixed
reference kernel that is part of this benchmark and never calls the
program.  The kernel takes ``REFERENCE_S`` on the reference host; how much
longer it takes at a given moment says how much slower the host is then.

:meth:`Ticker.reference_seconds` turns an interval of the pass into
reference-speed seconds: the kernel's own time is cut out, and each piece
of program time between two probes is scaled by ``REFERENCE_S`` over the
mean time of those two probes.  A program that gets twice as fast halves
the result; a host that gets twice as slow leaves it unchanged.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

# The host's speed changes within a tenth of a second, so the probes are
# frequent and short, and each piece of a pass is scaled by the two probes
# around it alone.  Per-call times of about 80 ms repeated between passes
# varied half as much as with a 2 ms kernel every 0.1 s and a median over
# six probes.
INTERVAL_S = 0.025
# Median time of one kernel run on the reference host (Intel Xeon VM,
# Python 3.11.7) when it was in its usual speed state.
REFERENCE_S = 0.00094

_ORDER = 34
_DENSITY_SEED = 0x5EED


def _kernel_graph() -> list[int]:
    """Non-neighbour masks of a fixed pseudo-random graph on ``_ORDER``
    vertices, edge density about one half (a small LCG, no ``random``)."""
    state = _DENSITY_SEED
    adjacency = [0] * _ORDER
    for u in range(_ORDER):
        for v in range(u + 1, _ORDER):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            if state >> 16 & 1:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    full = (1 << _ORDER) - 1
    return [full & ~adjacency[u] & ~(1 << u) for u in range(_ORDER)]


_NON_NEIGHBOURS = _kernel_graph()


def kernel() -> int:
    """Count the maximal independent sets of the fixed graph with a pivoting
    Bron-Kerbosch search on bit masks, and hash their sizes through a dict:
    the same mix of integer, tuple, list and dict work as the program's own
    enumeration, in code the program does not share."""
    non_neighbours = _NON_NEIGHBOURS
    sizes: dict[int, int] = {}
    stack = [(0, (1 << _ORDER) - 1, 0)]
    while stack:
        chosen, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            size = bin(chosen).count("1")
            sizes[size] = sizes.get(size, 0) + 1
            continue
        pivot = (candidates | excluded).bit_length() - 1
        branch = candidates & ~non_neighbours[pivot]
        while branch:
            bit = branch & -branch
            branch ^= bit
            keep = non_neighbours[bit.bit_length() - 1]
            stack.append((chosen | bit, candidates & keep, excluded & keep))
            candidates &= ~bit
            excluded |= bit
    return sum(size * count for size, count in sizes.items())


KERNEL_RESULT = kernel()


class Ticker:
    """Times the reference kernel every ``interval`` seconds while running.

    ``probes`` holds ``(start, end)`` of every kernel run.  :meth:`probe`
    runs one on demand; call it just before and just after each timed
    interval so that every piece of the interval lies between two probes.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.probes: list[tuple[float, float]] = []
        self._busy = False
        self._saved = None

    def probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = kernel()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        if result != KERNEL_RESULT:
            raise RuntimeError("reference kernel gave a different result")
        self.probes.append((start, end))

    def __enter__(self) -> "Ticker":
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def reference_seconds(self, start: float, end: float) -> float:
        """Program time within ``[start, end]`` in reference-speed seconds.

        ``probes`` must include one that ended before ``start`` and one that
        started after ``end``."""
        probes = self.probes
        first = bisect.bisect_right(probes, (start, float("inf"))) - 1
        if first < 0 or probes[-1][0] < end:
            raise ValueError("interval is not bracketed by probes")
        total = 0.0
        k = first
        while probes[k][1] < end:
            (before_start, before_end), (after_start, after_end) = probes[k], probes[k + 1]
            piece = min(after_start, end) - max(before_end, start)
            if piece > 0:
                mean = 0.5 * ((before_end - before_start) + (after_end - after_start))
                total += piece * REFERENCE_S / mean
            k += 1
        return total

    def speed(self) -> float:
        """Host speed relative to the reference over the probes so far
        (above 1 is faster), as the median of REFERENCE_S / probe time."""
        times = sorted(end - start for start, end in self.probes)
        return REFERENCE_S / times[len(times) // 2] if times else float("nan")
