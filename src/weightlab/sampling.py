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


def zoom_max(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray):
    """The largest value of a vectorised f found by scanning xs and zooming.

    f is evaluated on the increasing grid xs, then on ZOOM_STAGES grids of
    ZOOM_POINTS points, each spanning the two cells around the best point
    so far (one cell at an end).  The result is the largest value
    evaluated, so it is a lower bound for the supremum of f on [xs[0],
    xs[-1]] whatever points the search picks.

    An (r, n) array xs holds r independent searches, one per row, and f
    maps an (r, m) grid to (r, m) values; the result is then the r maxima,
    each bit-identical to the 1-D search of its row.  (Once one row's step
    is 0, np.linspace builds every row as (i / 32) * width rather than
    i * (width / 32); with ZOOM_POINTS - 1 = 32 both are one rounding of
    the same number, short of widths below 32 times the smallest normal
    float.)  A 1-D xs gives a float.
    """
    grid = np.asarray(xs, dtype=float)
    vals = f(grid)
    best = np.max(vals, axis=-1)
    for _ in range(ZOOM_STAGES):
        n = grid.shape[-1]
        # each row's first index in the flat grid (0-d for one search)
        first = np.arange(0, grid.size, n).reshape(grid.shape[:-1])
        k = first + np.argmax(vals, axis=-1)
        flat = grid.reshape(-1)
        lo, hi = flat[np.maximum(k - 1, first)], flat[np.minimum(k + 1, first + n - 1)]
        grid = np.linspace(lo, hi, ZOOM_POINTS).T
        vals = f(grid)
        stage = np.max(vals, axis=-1)
        best = np.where(stage > best, stage, best)  # as max(best, stage)
    return best if grid.ndim > 1 else float(best)
