"""Host-speed adjustment of measured times.

On a shared host the same call can take 25% more or less time from one
minute to the next, with no change in the program.  To keep runs
comparable, every timed operation is bracketed by a fixed reference
computation: numpy and scipy only, never labrr, so no change to the library
can move it.  An operation's adjusted time is its wall time scaled by the
reference's nominal time over the mean reference time measured just before
and just after it.  Adjusted seconds therefore read as seconds on a host
that runs the reference in its nominal time.

Host contention slows small, cache-resident work more than large blocked
work, so each workload brackets its calls with a reference of its own
shape: kernel blocks of the workload's sizes, each followed by an LU of the
block's column count, plus float formatting and parsing.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve


@dataclasses.dataclass(frozen=True)
class ReferenceShape:
    """Kernel blocks as (rows, cols, dim, repeats), floats, and nominal time.

    ``nominal_s`` is the reference's median time on a 2-vCPU Xeon host at
    2.0 GHz with one BLAS thread; it is the unit adjusted times are in.
    """

    blocks: tuple[tuple[int, int, int, int], ...]
    floats: int
    nominal_s: float


#: Small blocks in a loop, like the SGD steps at 150 support and d=2.
SMALL = ReferenceShape(((64, 150, 2, 6), (128, 400, 6, 1)), 1500, 0.017)
#: Blocks of the sizes a growing support reaches at d=6.
GROWTH = ReferenceShape(((290, 290, 6, 1), (128, 290, 6, 1)), 0, 0.014)


class Reference:
    """A fixed computation whose time tracks the host's current speed."""

    def __init__(self, shape: ReferenceShape) -> None:
        rng = np.random.default_rng(20240601)
        self.blocks = []
        for rows, cols, dim, repeats in shape.blocks:
            self.blocks.append((
                rng.uniform(-1.0, 1.0, size=(rows, 1, dim)),
                rng.uniform(-1.0, 1.0, size=(1, cols, dim)),
                rng.uniform(0.5, 2.0, size=(1, cols, dim)),
                rng.normal(size=(cols, cols)) + cols * np.eye(cols),
                repeats,
            ))
        self.values = rng.normal(size=shape.floats).tolist()

    def run_once(self) -> float:
        total = 0.0
        for rows, cols, theta, square, repeats in self.blocks:
            for _ in range(repeats):
                diff = (rows - cols) * theta
                kernel = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
                total += float(lu_solve(lu_factor(square), kernel.sum(axis=0))[0])
        total += sum(float(repr(v)) for v in self.values)
        return total

    def measure(self) -> float:
        """Median seconds of five repetitions."""
        times = []
        for _ in range(5):
            started = time.perf_counter()
            self.run_once()
            times.append(time.perf_counter() - started)
        return statistics.median(times)


class AdjustedTimer:
    """Times operations in wall seconds and in host-adjusted seconds."""

    def __init__(self, shape: ReferenceShape) -> None:
        self.nominal_s = shape.nominal_s
        self.reference = Reference(shape)
        self.reference.run_once()  # warm-up
        self._last = self.reference.measure()
        self.reference_s = [self._last]

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, wall seconds, adjusted seconds)."""
        started = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - started
        now = self.reference.measure()
        self.reference_s.append(now)
        adjusted = wall * self.nominal_s / (0.5 * (self._last + now))
        self._last = now
        return result, wall, adjusted
