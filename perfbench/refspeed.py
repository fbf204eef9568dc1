"""Host-speed reference for the benchmark's timings.

The benchmark was built on a shared virtual machine whose speed drifts
between plateaus up to about 1.7x apart, each lasting from seconds to
minutes, because of load outside the process.  CPU time tracks wall time
there, so the process runs slower rather than waiting, and a median over
one run cannot average a slow minute away.

So a pass times a fixed reference kernel (a *probe*) before and after every
measured interval.  The kernel belongs to the benchmark and calls nothing in
gscfw, so a change to the library never changes it.  Each interval between
two probes is rescaled to the reference speed:

    seconds = raw seconds * REF_SECONDS / mean(probe before, probe after)

A probe is the fastest of ``REPS`` runs of the kernel, so one interrupt does
not skew it.  Probe time itself is in no interval.  The raw seconds are kept
beside the rescaled ones and printed in the report.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
from scipy import sparse

# A probe on the host the bounds were measured on (2 vCPU, Python 3.11.7,
# numpy 2.4.6, one OpenBLAS thread) in one of its faster plateaus.  It only
# sets the scale: changing it rescales every timing by the same factor.
REF_SECONDS = 6.0e-4
REPS = 3

_rng = np.random.default_rng(20201003)
_A = _rng.standard_normal((300, 100))
_X0 = _rng.standard_normal(100)
_B = _rng.standard_normal((40, 40))
_S = _B @ _B.T + 40.0 * np.eye(40)
_M = sparse.random(3000, 1000, density=0.05, format="csr", random_state=_rng)
_V = _rng.standard_normal(1000)
_U = _rng.standard_normal(3000)


def kernel() -> float:
    """Seconds for one run of the reference kernel: the mix a Frank-Wolfe
    iteration makes of dense products, an argmax-driven update, a scalar
    Python loop and a small Cholesky, then the sparse products of a margin
    oracle.  Compute-bound and memory-bound work speed up by different
    amounts when the host does, so the kernel has some of each."""
    t0 = time.perf_counter()
    x, acc = _X0.copy(), 0.0
    for _ in range(16):
        y = _A @ x
        k = int(np.argmax(y))
        x = 0.99 * x + 0.01 * _A[k]
        for j in range(40):
            acc += j * 1e-12
    np.linalg.cholesky(_S)
    _M @ _V
    _M.T @ _U
    return time.perf_counter() - t0


class Timeline:
    """Probes of one pass, in time order, and the rescaling they give."""

    def __init__(self):
        kernel()  # warm up before the first probe
        self.starts, self.ends, self.refs = [], [], []

    def probe(self):
        t0 = time.perf_counter()
        ref = min(kernel() for _ in range(REPS))
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.refs.append(ref)

    def scale(self, a: float, b: float) -> float:
        """Interval [a, b] in reference seconds.  A probe must end at or
        before ``a`` and another start at or after ``b``."""
        i = bisect.bisect_right(self.ends, a) - 1
        j = bisect.bisect_left(self.starts, b)
        return (b - a) * 2.0 * REF_SECONDS / (self.refs[i] + self.refs[j])

    def _gaps(self):
        return zip(self.ends[:-1], self.starts[1:])

    def wall(self) -> float:
        """Everything between the first and last probe but the probes,
        in reference seconds."""
        return sum(self.scale(a, b) for a, b in self._gaps())

    def raw_wall(self) -> float:
        return sum(b - a for a, b in self._gaps())

    def speed(self) -> float:
        """Median host speed over the pass: REF_SECONDS / probe."""
        return REF_SECONDS / float(np.median(self.refs))
