"""How fast the box runs at the moment, read off a fixed kernel.

A small shared box changes speed from outside it: the same point runs up
to 1.5 times slower for stretches of seconds to minutes, in wall time
and CPU time alike (BASELINE.md, "Box noise").  So the benchmark times a
fixed kernel between points, never inside one, and scales each timed
span by ``REF_S`` over the kernel's time around it.  A scaled time is
what the span would have taken on a box running the kernel in ``REF_S``.

The kernel is a mix of what the program does: small BLAS products and
numpy passes over an array, many numpy calls on short arrays, an einsum
over a stack of small complex operators, float formatting and small
objects in the interpreter.  It uses no scissorlab code, so a change to
the program cannot change it.  Its arrays are made once, so that its
time does not depend on where a fresh allocation lands.

Wall-clock figures are kept beside the scaled ones in every run record.
"""

from __future__ import annotations

import bisect
import gc
import time

import numpy as np

#: the kernel's time on the box in its fast state, in seconds; scaled
#: figures are seconds at this kernel speed
REF_S = 0.01
#: kernel runs per mark; a mark keeps the fastest
REPS = 3
#: a point is followed by a fresh mark when the last is at least this old
EVERY_S = 1.0


class Speed:
    """Marks of the kernel's time, and the scale they give a span."""

    REF_S = REF_S

    def __init__(self):
        rng = np.random.default_rng(20091211)
        self._a = rng.standard_normal((60, 60))
        self._ab = np.empty_like(self._a)
        self._x = rng.standard_normal(20_000)
        self._ex = np.empty_like(self._x)
        self._values = self._x[:9000].tolist()
        # 1000 operators of 11 x 11, about 2 MB
        self._stack = rng.standard_normal((1000, 11, 11)) + 0j
        self._vectors = np.ascontiguousarray(self._stack[:, 0, :])
        self.times: list[float] = []
        self.kernels: list[float] = []

    def _once(self) -> float:
        a, ab, x, ex = self._a, self._ab, self._x, self._ex
        start = time.perf_counter()
        for _ in range(30):
            np.matmul(a, a, out=ab)
        for _ in range(9):
            np.exp(x, out=ex).sum()
        for i in range(300):
            short = x[i:i + 40]
            np.exp(-0.25 * short * short).sum()
            np.einsum("k,k->", short, short)
        for _ in range(12):
            np.einsum("kij,kj->ki", self._stack, self._vectors).sum()
        ",".join(f"{v:.6g}" for v in self._values)
        table = {}
        for i in range(12_000):
            table[i] = (i * 0.5,)
        return time.perf_counter() - start

    def mark(self) -> None:
        """Time the kernel REPS times and keep the fastest, which a brief
        interruption cannot raise."""
        gc.disable()
        try:
            kernel = min(self._once() for _ in range(REPS))
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.kernels.append(kernel)

    def mark_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the kernel's time around the span [start, end]: the
        mean of the last mark before it and the first mark after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        if before < 0 or after == len(self.times):
            raise ValueError("span is not between two marks")
        return 2.0 * REF_S / (self.kernels[before] + self.kernels[after])
