"""A fixed reference kernel, timed between requests, that scales out drift
in the machine's speed.

The machine is shared: its speed drifts by up to 2x for minutes at a time,
and all pure-Python code in the process slows alike.  The kernel is pure
Python of the same kind as the library (string-keyed dicts, a
breadth-first walk, tuples, a sort) but never calls ``procover``, so a
change to the library cannot move it.  It runs with the garbage collector
off, so the library's live objects do not enter its time either.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.001
"""Kernel time at which the speed factor is 1 (about its time on a quiet
2-CPU virtual machine, Python 3.11)."""

_ADJ = {"v%d" % i: ["v%d" % ((i * 7 + j) % 2000) for j in range(4)]
        for i in range(2000)}


def _kernel() -> int:
    seen = {"v0"}
    order = ["v0"]
    q = 0
    while q < len(order):
        for w in _ADJ[order[q]]:
            if w not in seen:
                seen.add(w)
                order.append(w)
        q += 1
    labels = {v: (v, len(v)) for v in order}
    return len(sorted(labels))


class Speed:
    """Kernel times collected over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self, quantile: float) -> float:
        """NOMINAL_S over the kernel time at ``quantile`` of the samples:
        below 1 when the machine ran slow.  Read the kernel at the quantile
        the scaled figure is read at: 0.1 for the least of about ten
        passes, 0.5 for a median."""
        ordered = sorted(self.samples)
        return NOMINAL_S / ordered[int(quantile * (len(ordered) - 1))]
