"""Phase timing rescaled by the machine's speed at that moment.

The machine this benchmark was tuned on (2 vCPUs with busy neighbours) ran
the same code 1.3-2x slower for minutes at a time, so raw seconds from runs a
few minutes apart spread by 10-50%.  Every timed call here is bracketed by
fixed reference kernels that do not touch the ``rons`` package, and its
duration is rescaled by ``nominal / reference time``: seconds as they would
read on a machine where the reference takes its nominal time.  No change to
the package can move a reference, so a faster or slower program moves the
rescaled time by the same factor as the raw one.

Contention slows code by different factors depending on what it spends its
time on, so there are two references and each call names the one that
matches it:

* ``"arrays"`` -- arithmetic, rolls and FFTs on batch-sized arrays (3.2 MB,
  more than one core's L2), for batched phases;
* ``"calls"`` -- many tiny dense solves, where per-call overhead dominates,
  for single-member phases.

On the tuning machine, while raw phase times spread by 40-55% between 15 s
windows, the matching reference left 3-8%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import linalg

#: Reference-kernel times on the tuning machine when uncontended.
NOMINAL_S = {"arrays": 0.007, "calls": 0.003}
#: Each reference is the fastest of this many back-to-back kernel runs.
REFERENCE_REPEATS = 3


class CalibratedClock:
    def __init__(self):
        rng = np.random.default_rng(20231208)
        self._small = rng.random((2, 1024)) + 0.5
        self._batches = [rng.random((100, 2, 256)) + 0.5 for _ in range(8)]
        self._spectral = rng.random((20, 384)) + 1j * rng.random((20, 384))
        systems = rng.random((100, 3, 3)) + 3.0 * np.eye(3)
        self._spd = [c @ c.T for c in systems]
        self._kernels = {"arrays": self._arrays, "calls": self._calls}
        self._last = self.reference()

    def _arrays(self) -> float:
        x = self._small
        for _ in range(40):
            y = np.roll(x, -1, axis=-1)
            x = np.where(y > x, 0.5 * (x + y), np.sqrt(x * y))
        total = float(x[0, 0])
        for b in self._batches:
            total += float((np.sqrt(np.roll(b, 1, axis=-1) * b) + 0.25 * np.abs(b - 0.5))[0, 0, 0])
        z = self._spectral
        for _ in range(10):
            z = np.fft.ifft(np.fft.fft(z, axis=-1) * 0.5, axis=-1) + z
        return total + z[0, 0].real

    def _calls(self) -> float:
        total = 0.0
        for c in self._spd:
            total += float(np.linalg.solve(c, c[0])[0])
            total += float(linalg.cho_solve(linalg.cho_factor(c, lower=True), c[0])[0])
        return total

    def reference(self) -> dict:
        """Fastest of a few runs of each reference kernel, in seconds."""
        best = {}
        for kind, kernel in self._kernels.items():
            best[kind] = np.inf
            for _ in range(REFERENCE_REPEATS):
                start = perf_counter()
                kernel()
                best[kind] = min(best[kind], perf_counter() - start)
        return best

    def refresh(self):
        self._last = self.reference()

    def time(self, kind, fn, *args):
        """``(result, raw seconds, rescaled seconds)`` of ``fn(*args)``.

        The speed is the mean of the ``kind`` reference just before and just
        after the call.
        """
        before = self._last[kind]
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        self._last = self.reference()
        return result, raw, raw * NOMINAL_S[kind] / (0.5 * (before + self._last[kind]))
