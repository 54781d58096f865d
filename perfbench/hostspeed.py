"""Host-speed probes, and the time scale that cancels the host's speed.

On a shared host the CPU may run the interpreter and numpy markedly
slower for stretches of seconds to minutes, while its neighbours are
busy; wall time and CPU time slow down alike (no time is stolen, the
core itself is slower).  A median over the repeats of one run cannot
remove a slow stretch that covers the whole run.

A :class:`HostSpeed` times a fixed probe at the boundaries of the
benchmark's operations and every so often inside a long solve: a few
proximal-gradient steps (sparse products with a matrix and its
transpose, a soft-threshold and momentum) on a random matrix of the
workload's shape, written here and not taken from the library.  On a
probe of the workload's own kind of work the host's slow stretches show
about as strongly as on the experiment's operations.  Between two probes
the host is taken to run at the mean of their speeds.
:meth:`HostSpeed.scaled` turns a clock interval into *reference
seconds*: each part of the interval is weighted by ``REFERENCE_S / probe
time`` around it, and the probes' own time is left out.  A change to the
library moves the operations and not the probe, so it shows in reference
seconds as it does in seconds.
"""

from __future__ import annotations

import time
from array import array

import numpy as np
import scipy.sparse as sp

# The unit of the scaled times: a reference second is a second on a host
# where the probe takes this long.  The probe's step count is set from the
# shape so that it takes about this long on an unloaded 2-vCPU Xeon host
# (CPython 3.11, numpy 2.4, scipy 1.17): a step costs about 20 us plus
# 1.7 ns per stored entry there.
REFERENCE_S = 0.8e-3


def probe_steps(nnz: int) -> int:
    """Steps of the probe on a matrix with ``nnz`` stored entries."""
    return max(4, round(REFERENCE_S / (20e-6 + nnz / 600e6)))


class HostSpeed:
    """Probe readings on one clock, and intervals scaled by them."""

    def __init__(self, N: int, n: int, density: float):
        rng = np.random.default_rng(20190621)
        self._A = sp.random(N, n, density=density, format="csr", random_state=rng)
        self._AT = self._A.T.tocsr()
        self._b = rng.standard_normal(N)
        self._x0 = rng.standard_normal(n)
        self.steps = probe_steps(self._A.nnz)
        self.start = array("d")
        self.end = array("d")
        self.seconds = array("d")

    def _probe(self) -> None:
        A, AT, b = self._A, self._AT, self._b
        x = y = self._x0
        for k in range(self.steps):
            z = y - 0.1 * (AT @ (A @ y - b))
            x_new = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
            y = x_new + (k / (k + 3)) * (x_new - x)
            x = x_new
            float(np.dot(x, x))

    def take(self) -> None:
        """Record one reading of the host's speed, now."""
        t0 = time.perf_counter()
        self._probe()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t1)
        self.seconds.append(t1 - t0)

    def median_ms(self) -> float:
        return 1e3 * float(np.median(self.seconds)) if self.seconds else float("nan")

    def scaled(self, t0, t1):
        """Reference seconds between clock readings ``t0`` and ``t1``.

        Works elementwise on arrays.  Time spent inside a probe counts as
        zero; before the first and after the last reading the host is
        taken to run at that reading's speed.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        rate = REFERENCE_S / np.frombuffer(self.seconds, dtype=np.float64)
        # F(t): reference seconds from start[0] to t, piecewise linear with
        # knots at every probe's start and end; flat across each probe.
        gap_rate = (rate[:-1] + rate[1:]) / 2
        at_start = np.concatenate(([0.0], np.cumsum((start[1:] - end[:-1]) * gap_rate)))
        knots = np.column_stack((start, end)).ravel()
        values = np.repeat(at_start, 2)

        def F(t):
            t = np.asarray(t, dtype=np.float64)
            inside = np.interp(t, knots, values)
            before = (t - start[0]) * rate[0]
            after = values[-1] + (t - end[-1]) * rate[-1]
            return np.where(t < start[0], before, np.where(t > end[-1], after, inside))

        out = F(t1) - F(t0)
        return float(out) if out.ndim == 0 else out
