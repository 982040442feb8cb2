"""Sampled-function plumbing shared by the diagnostic modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# zoom_max's stages: each is 16 times narrower than the one before, so the
# last reaches 2^-32 of the scan spacing
ZOOM_STAGES = 8
ZOOM_POINTS = 33


@dataclass
class SampledFunction:
    """A function trace on a strictly increasing positive grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if len(self.grid) and self.grid[0] <= 0:
            raise ValueError("grid must be positive")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def at(self, t: float) -> float:
        """Piecewise-constant-from-the-left lookup (steps jump at grid points)."""
        idx = np.searchsorted(self.grid, t, side="right") - 1
        if idx < 0:
            return float(self.values[0])
        return float(self.values[idx])


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced points on [lo, hi]."""
    if not (0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    return np.exp(np.linspace(np.log(lo), np.log(hi), n))


def zoom_max(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> float:
    """The largest value of a vectorised f found by scanning xs and zooming.

    f is evaluated on the increasing grid xs, then on ZOOM_STAGES grids of
    ZOOM_POINTS points, each spanning the two cells around the best point
    so far (one cell at an end).  The result is the largest value
    evaluated, so it is a lower bound for the supremum of f on [xs[0],
    xs[-1]] whatever points the search picks.
    """
    grid = np.asarray(xs, dtype=float)
    vals = f(grid)
    best = float(np.max(vals))
    for _ in range(ZOOM_STAGES):
        k = int(np.argmax(vals))
        grid = np.linspace(grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)], ZOOM_POINTS)
        vals = f(grid)
        best = max(best, float(np.max(vals)))
    return best
