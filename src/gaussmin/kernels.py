"""Covariance kernel families and Gram matrices on grids.

Four families are supported:

* ``OrnsteinUhlenbeck`` -- stationary, ``R(s, t) = exp(-|s - t|)``.
* ``PowerExponential(alpha)`` -- stationary, ``R(s, t) = exp(-|s - t|**alpha)``
  with ``alpha`` in ``(0, 1]`` (``alpha = 1`` recovers Ornstein-Uhlenbeck).
* ``ModulatedBrownian(g, a, b)`` -- nonstationary, the covariance of
  ``B(t) / g(t)`` on ``[a, b]`` with ``0 < a``:
  ``R(s, t) = min(s, t) / (g(s) g(t))``.
* ``ExplicitGram`` -- an arbitrary symmetric PSD matrix tied to an explicit
  point set; escape hatch for matrices that do not come from a kernel formula.

Kernels are immutable and all operations are pure, so instances can be shared
freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .exceptions import DomainError, NotPositiveSemidefiniteError
from .grids import as_points

PSD_RTOL = 1e-10  # minimum eigenvalue >= -PSD_RTOL * max diagonal


# ---------------------------------------------------------------------------
# scale functions g for the modulated Brownian family
# ---------------------------------------------------------------------------


class ScaleFunction:
    """Positive scale function with first and second derivative accessors."""

    def g(self, x):
        raise NotImplementedError

    def dg(self, x):
        raise NotImplementedError

    def d2g(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerScale(ScaleFunction):
    """g(t) = t**alpha on t > 0, with 0 < alpha < 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def g(self, x):
        return np.asarray(x, dtype=float) ** self.alpha

    def dg(self, x):
        return self.alpha * np.asarray(x, dtype=float) ** (self.alpha - 1.0)

    def d2g(self, x):
        a = self.alpha
        return a * (a - 1.0) * np.asarray(x, dtype=float) ** (a - 2.0)


@dataclass(frozen=True)
class ShiftedRootScale(ScaleFunction):
    """g(t) = sqrt(t - c) on t > c, with c >= 0."""

    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError(f"shift c must be >= 0, got {self.c}")

    def g(self, x):
        return np.sqrt(np.asarray(x, dtype=float) - self.c)

    def dg(self, x):
        return 0.5 / np.sqrt(np.asarray(x, dtype=float) - self.c)

    def d2g(self, x):
        return -0.25 * (np.asarray(x, dtype=float) - self.c) ** -1.5


@dataclass(frozen=True)
class TabulatedScale(ScaleFunction):
    """Node values of g, g' and g''.

    g is interpolated with a monotone piecewise cubic (so tabulated monotone
    data stays monotone); g' and g'' are stored node values, interpolated
    linearly between nodes.
    """

    x: np.ndarray
    g_values: np.ndarray
    dg_values: np.ndarray
    d2g_values: np.ndarray
    _g_interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        gv = np.asarray(self.g_values, dtype=float).copy()
        dgv = np.asarray(self.dg_values, dtype=float).copy()
        d2gv = np.asarray(self.d2g_values, dtype=float).copy()
        if not (x.shape == gv.shape == dgv.shape == d2gv.shape) or x.ndim != 1:
            raise ValueError("x, g, g', g'' must be 1-D arrays of equal length")
        if x.size < 2 or not np.all(np.diff(x) > 0):
            raise ValueError("need at least two strictly increasing nodes")
        if np.any(gv <= 0):
            raise ValueError("g must be positive at every node")
        for name, arr in (("x", x), ("g_values", gv), ("dg_values", dgv), ("d2g_values", d2gv)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_g_interp", PchipInterpolator(x, gv))

    def g(self, t):
        return self._g_interp(np.asarray(t, dtype=float))

    def dg(self, t):
        return np.interp(np.asarray(t, dtype=float), self.x, self.dg_values)

    def d2g(self, t):
        return np.interp(np.asarray(t, dtype=float), self.x, self.d2g_values)


def constant_scale(level: float, a: float, b: float) -> TabulatedScale:
    """Tabulated g identically equal to ``level`` on [a, b]."""
    x = np.linspace(a, b, 5)
    return TabulatedScale(x, np.full(5, float(level)), np.zeros(5), np.zeros(5))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Kernel:
    """Common interface: scalar/vectorized evaluation and Gram matrices."""

    def _check_domain(self, pts: np.ndarray) -> None:
        """Raise DomainError if any point lies outside the kernel's domain."""

    def pairwise(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, s: float, t: float) -> float:
        """Covariance R(s, t); symmetric, R(t, t) > 0."""
        s_arr = np.asarray([s], dtype=float)
        t_arr = np.asarray([t], dtype=float)
        self._check_domain(s_arr)
        self._check_domain(t_arr)
        return float(self.pairwise(s_arr, t_arr)[0, 0])

    def gram(self, grid) -> np.ndarray:
        """Covariance matrix on an ordered point set; its factorization is the PSD check."""
        pts = as_points(grid)
        self._check_domain(pts)
        return self.pairwise(pts, pts)


@dataclass(frozen=True)
class OrnsteinUhlenbeck(Kernel):
    """Stationary exponential covariance exp(-|s - t|)."""

    def pairwise(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(-np.abs(s[:, None] - t[None, :]))


@dataclass(frozen=True)
class PowerExponential(Kernel):
    """Stationary covariance exp(-|s - t|**alpha), 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    def pairwise(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(-np.abs(s[:, None] - t[None, :]) ** self.alpha)


@dataclass(frozen=True)
class ModulatedBrownian(Kernel):
    """Covariance min(s, t) / (g(s) g(t)) of B(t)/g(t) on [a, b], 0 < a < b."""

    scale: ScaleFunction
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < self.b:
            raise ValueError(f"need 0 < a < b, got [{self.a}, {self.b}]")

    def _check_domain(self, pts):
        if np.any(pts < self.a) or np.any(pts > self.b):
            raise DomainError(
                f"point outside the kernel support [{self.a}, {self.b}]"
            )

    def pairwise(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        gs = np.asarray(self.scale.g(s), dtype=float)
        gt = np.asarray(self.scale.g(t), dtype=float)
        if np.any(gs <= 0) or np.any(gt <= 0):
            raise DomainError("scale function must be positive on the support")
        return np.minimum(s[:, None], t[None, :]) / (gs[:, None] * gt[None, :])


@dataclass(frozen=True)
class ExplicitGram(Kernel):
    """A covariance matrix given directly on an explicit point set."""

    matrix: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        pts = np.asarray(self.points, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if pts.ndim != 1 or pts.size != m.shape[0]:
            raise ValueError("points must match the matrix dimension")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError("matrix must be symmetric")
        m = 0.5 * (m + m.T)  # exact symmetry
        if np.any(np.diag(m) <= 0):
            raise ValueError("diagonal entries must be positive")
        lo = np.linalg.eigvalsh(m)[0]
        if lo < -PSD_RTOL * float(np.max(np.diag(m))):
            raise NotPositiveSemidefiniteError(
                f"minimum eigenvalue {lo:.3e} below tolerance"
            )
        m.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_matrix(cls, matrix) -> "ExplicitGram":
        m = np.asarray(matrix, dtype=float)
        return cls(m, np.arange(m.shape[0], dtype=float))

    def _index_of(self, pts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.points, pts)
        idx = np.clip(idx, 0, self.points.size - 1)
        # allow the nearest of the two bracketing grid points
        left = np.clip(idx - 1, 0, self.points.size - 1)
        use_left = np.abs(self.points[left] - pts) < np.abs(self.points[idx] - pts)
        idx = np.where(use_left, left, idx)
        scale = max(1.0, float(np.abs(self.points).max()))
        if np.any(np.abs(self.points[idx] - pts) > 1e-12 * scale):
            raise DomainError("ExplicitGram kernel queried off its grid")
        return idx

    def _check_domain(self, pts):
        self._index_of(pts)

    def pairwise(self, s, t):
        si = self._index_of(np.asarray(s, dtype=float))
        ti = self._index_of(np.asarray(t, dtype=float))
        return self.matrix[np.ix_(si, ti)]

    def grid(self):
        from .grids import PointGrid

        return PointGrid(self.points)
