"""Host-speed reference: a fixed kernel timed between the operations of a run.

On a virtual machine whose cores other tenants share (the baseline host is
one, with two vCPUs), their load slows everything alike, by up to half, with
no trace in the guest's steal time; a concurrent process on the sibling core
does the same.  The slowdown of this fixed kernel, which does the same kind
of work as minkgeom (small numpy calls inside Python loops), tracks the
slowdown of the operations.

The load changes within seconds, so one factor for a whole run leaves the
slow stretches of a run in its tail.  Instead a run takes one sample before
its first operation and one after each operation, and ``scale`` multiplies
an operation's time by nominal over the mean of the samples just before and
just after it: the result reads as seconds on the host at its nominal speed.
On the baseline host, over 160 tensor-kernels operations of 60 s, this left
a log-time spread per operation of 0.12, against 0.17 for the sample after
the operation alone and 0.22 unscaled; a median over a window of several
samples tracked the host less well, since its load moves within a second or
two.

The reference is the benchmark's own code and never changes, so a change to
minkgeom moves the scaled times exactly as it moves the raw ones.  A sample
runs with the garbage collector off: otherwise a heap that minkgeom grows (a
cache, say) would put collections into the samples and make minkgeom's own
times read faster.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# reference kernel time on the baseline host (see baseline.json) when quiet
REF_NOMINAL_S = 0.004

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])


def reference_kernel() -> float:
    y = np.array([0.3, -1.1, 0.7])
    acc = 0.0
    for _ in range(200):
        a = float(np.linalg.norm(y))
        ell = y / a
        h = np.eye(3) - np.outer(ell, ell)
        x = np.linalg.solve(_A + h, y)
        acc += a * float(x @ y) + sum(k * 0.5 for k in range(20))
        y = y + 1e-3
    return acc


class HostClock:
    """Reference samples taken between the timed regions of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one reference kernel, record it and return it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return self.samples[-1]

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` at nominal host speed, from the samples around it."""
        return seconds * REF_NOMINAL_S / ((before + after) / 2)

    def factor(self) -> float:
        """Nominal over the median sample: one factor for a whole run."""
        if not self.samples:
            self.sample()
        return REF_NOMINAL_S / statistics.median(self.samples)
