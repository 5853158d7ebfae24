"""Dyadic and explicit point grids on a compact interval.

A dyadic grid at level ``k`` has ``2**k + 1`` equally spaced points
``t_i = a + (b - a) * i * 2**-k``. Successive levels are nested, which is what
makes the refinement sweep in :mod:`gaussmin.optimizer` monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 4097 points. A Gauss-Markov Problem solves here with no n x n matrix (example2,
# partial support: 0.4 s), but a dense one (PowerExponential(alpha < 1), a
# fine ExplicitGram) holds sigma, its factor and factorize's copies: at 13
# levels each 8193^2 matrix is 537 MB. One bound for every kernel keeps it.
MAX_LEVEL = 12


@dataclass(frozen=True)
class DyadicGrid:
    """Level-``k`` binary partition of ``[a, b]``."""

    a: float
    b: float
    k: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not 0 <= self.k <= MAX_LEVEL:
            raise ValueError(f"level k must be in [0, {MAX_LEVEL}], got {self.k}")
        n = 2**self.k + 1
        pts = self.a + (self.b - self.a) * np.arange(n) * 2.0**-self.k
        pts[-1] = self.b  # exact endpoint regardless of rounding
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return 2**self.k + 1

    @property
    def interval(self) -> tuple[float, float]:
        return (self.a, self.b)


@dataclass(frozen=True)
class PointGrid:
    """Explicit strictly increasing point set (escape hatch for Gram-matrix kernels)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("points must be a nonempty 1-D array")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def interval(self) -> tuple[float, float]:
        return (float(self.points[0]), float(self.points[-1]))


Grid = DyadicGrid | PointGrid


def as_points(grid) -> np.ndarray:
    """Accept a grid object or a raw array of ordered points."""
    if isinstance(grid, (DyadicGrid, PointGrid)):
        return grid.points
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1:
        raise ValueError("grid must be 1-D")
    if pts.size > 1 and not np.all(np.diff(pts) > 0):
        raise ValueError("grid points must be strictly increasing")
    return pts

