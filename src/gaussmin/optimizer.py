"""Minimize nu^T Sigma nu over the probability simplex, with certificates.

The minimizing measure of the covariance double integral on a grid solves a
convex QP over the simplex. One Cholesky factor Sigma = L L^T drives a single
path:

* theta step: theta = Sigma^{-1} 1. When theta >= 0 the KKT conditions hold
  with every grid point active, so nu* = theta / sum(theta). This covers every
  full-support kernel here (Ornstein-Uhlenbeck, power-exponential, modulated
  Brownian).
* NNLS otherwise: min over x >= 0 of x^T Sigma x / 2 - 1^T x is the
  nonnegative least-squares problem |L^T x - L^{-1} 1| (Lawson & Hanson's
  active-set method), and nu* = x / sum(x).

Optimality is then certified through the mean vector m = Sigma nu:
feasibility requires min_j m_j >= sigma*^2 with equality on the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .exceptions import NotPositiveSemidefiniteError, OptimizerError
from .grids import MAX_LEVEL, DyadicGrid, Grid, PointGrid
from .kernels import ExplicitGram, Kernel
from .measure import GridMeasure

if TYPE_CHECKING:
    from .estimators import Problem

SUPPORT_TOL = 1e-9          # relative weight below which a point is off-support


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal grid measure with its certificate.

    Invariants: min_j m_j >= sigma_star_sq * (1 - 1e-8); |m_j - sigma_star_sq|
    <= 1e-8 * sigma_star_sq for j in support; sigma_star_sq = nu^T Sigma nu
    within 1e-12 relative.
    """

    measure: GridMeasure
    sigma_star_sq: float
    certificate: np.ndarray          # m_j = (Sigma nu)_j
    support: np.ndarray              # indices with weight > SUPPORT_TOL (relative)
    method: str = "theta"            # "theta" or "nnls"
    iterations: int = 0              # always 0: neither route counts iterations
    gap: float = 0.0

    def __post_init__(self):
        for name in ("certificate", "support"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RefinementEntry:
    """One level of a refinement."""

    k: int
    sigma_star_sq: float
    measure: GridMeasure


@dataclass(frozen=True)
class RefinementTrace:
    """Solutions over increasing dyadic levels; sigma*^2_k is nonincreasing.

    ``problem`` is the final level's; the lower levels' Gram matrices are not kept.
    """

    entries: tuple[RefinementEntry, ...]
    converged: bool
    final_gap: float
    problem: Problem

    def __post_init__(self):
        vals = self.sigma_values
        if np.any(np.diff(vals) > 1e-10):
            raise OptimizerError(f"refinement values not nonincreasing: {vals}")

    @property
    def sigma_values(self) -> np.ndarray:
        return np.array([e.sigma_star_sq for e in self.entries])

    @property
    def final(self) -> RefinementEntry:
        return self.entries[-1]


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _check_square_symmetric(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
        raise NotPositiveSemidefiniteError(f"need a square matrix, got shape {sigma.shape}")
    scale = max(float(np.abs(sigma).max()), 1.0)
    if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
        raise NotPositiveSemidefiniteError("matrix is not symmetric")
    d = np.diag(sigma)
    if np.any(d < -1e-12 * scale):
        raise NotPositiveSemidefiniteError("negative diagonal entry")
    # Cauchy-Schwarz necessary condition, cheap O(n^2) screen
    bound = np.sqrt(np.outer(np.maximum(d, 0), np.maximum(d, 0)))
    if np.any(np.abs(sigma) > bound + 1e-8 * scale):
        raise NotPositiveSemidefiniteError("off-diagonal entry violates Cauchy-Schwarz")
    return 0.5 * (sigma + sigma.T)


def solve_simplex_qp(sigma: np.ndarray, grid: Grid | None = None) -> OptimalSolution:
    """Solve min w^T Sigma w over the probability simplex with a certificate.

    One Cholesky factor L of Sigma serves both routes: theta = Sigma^{-1} 1
    when it is nonnegative, otherwise the NNLS problem |L^T x - L^{-1} 1|.
    ``grid`` labels the result's measure; index positions are used when absent.
    """
    sigma = _check_square_symmetric(sigma)
    n = sigma.shape[0]
    if grid is None:
        grid = PointGrid(np.arange(n, dtype=float))
    elif grid.points.size != n:
        raise OptimizerError(f"grid has {grid.points.size} points for a {n}x{n} matrix")

    try:
        factor = cho_factor(sigma, lower=True, check_finite=False)
    except LinAlgError:
        jitter = 1e-10 * max(float(np.diag(sigma).max()), 1.0)
        try:
            factor = cho_factor(sigma + jitter * np.eye(n), lower=True, check_finite=False)
        except LinAlgError:
            raise NotPositiveSemidefiniteError(
                "matrix is not positive semidefinite within tolerance") from None
    ones = np.ones(n)
    theta = cho_solve(factor, ones, check_finite=False)
    if np.all(theta >= -1e-12 * float(np.abs(theta).max())):
        # KKT conditions hold with the full active set
        w = np.clip(theta, 0.0, None)
        method = "theta"
    else:
        from scipy.optimize import nnls  # only partial-support problems reach NNLS

        lower = np.tril(factor[0])  # cho_factor leaves the upper triangle unzeroed
        try:
            w, _ = nnls(lower.T, solve_triangular(lower, ones, lower=True, check_finite=False))
        except RuntimeError as exc:
            raise OptimizerError(f"NNLS did not converge on a {n}-point matrix: {exc}") from None
        method = "nnls"
    w = w / w.sum()
    m = sigma @ w
    sigma_sq = float(w @ m)
    measure = GridMeasure.from_raw(grid, w)
    support = np.nonzero(measure.weights > SUPPORT_TOL * measure.weights.max())[0]
    gap = max(sigma_sq - float(m.min()), 0.0)
    support_dev = float(np.abs(m[support] - sigma_sq).max())
    if gap > 1e-8 * sigma_sq or support_dev > 1e-8 * sigma_sq:
        raise OptimizerError(
            f"certificate violated: gap {gap:.3e}, support deviation {support_dev:.3e} "
            f"for sigma*^2 {sigma_sq:.12g}")
    return OptimalSolution(measure=measure, sigma_star_sq=sigma_sq, certificate=m,
                           support=support, method=method, gap=gap)


# ---------------------------------------------------------------------------
# certification and refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Optimality check of a candidate measure against a Gram matrix."""

    m: np.ndarray
    sigma_sq: float
    min_slack: float               # min_j m_j - sigma_sq (>= 0 at optimum)
    max_support_violation: float   # max |m_j - sigma_sq| over the support
    passed: bool

    def __post_init__(self):
        arr = np.asarray(self.m)
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)


def certify(sigma: np.ndarray, measure: GridMeasure, tol: float = 1e-8) -> CertificateReport:
    """Report first-order optimality of ``measure`` for ``sigma``.

    Always returns a report; ``passed`` is the verdict at relative tolerance
    ``tol``.
    """
    sigma = _check_square_symmetric(sigma)
    w = measure.weights
    if w.size != sigma.shape[0]:
        raise OptimizerError(f"measure has {w.size} weights for a {sigma.shape[0]}-point Gram")
    m = sigma @ w
    sigma_sq = float(w @ m)
    support = w > SUPPORT_TOL * w.max()
    min_slack = float(m.min() - sigma_sq)
    max_violation = float(np.abs(m[support] - sigma_sq).max())
    passed = bool(min_slack >= -tol * sigma_sq and max_violation <= tol * sigma_sq)
    return CertificateReport(m=m, sigma_sq=sigma_sq, min_slack=min_slack,
                             max_support_violation=max_violation, passed=passed)


def refine(kernel: Kernel, interval: tuple[float, float], k_min: int, k_max: int,
           stop_tol: float = 1e-6) -> RefinementTrace:
    """Solve on dyadic grids of increasing level until sigma*^2_k stabilizes.

    Stops early when consecutive values differ by less than ``stop_tol``.
    A fixed-grid kernel (ExplicitGram) cannot refine: single-entry trace.
    """
    from .estimators import Problem  # estimators imports this module

    if not 0 <= k_min <= k_max <= MAX_LEVEL:
        raise OptimizerError(f"need 0 <= k_min <= k_max <= {MAX_LEVEL}")
    a, b = interval

    def solve(k: int, grid: Grid) -> tuple[RefinementEntry, Problem]:
        problem = Problem(kernel, grid)
        sol = problem.solution
        return RefinementEntry(k, sol.sigma_star_sq, sol.measure), problem

    if isinstance(kernel, ExplicitGram):
        entry, problem = solve(0, kernel.grid())
        return RefinementTrace(entries=(entry,), converged=True, final_gap=0.0,
                               problem=problem)
    entries: list[RefinementEntry] = []
    converged = False
    final_gap = float("inf")
    for k in range(k_min, k_max + 1):
        try:
            entry, problem = solve(k, DyadicGrid(a, b, k))
        except (OptimizerError, NotPositiveSemidefiniteError) as exc:
            raise OptimizerError(f"refinement failed at level k={k}: {exc}") from exc
        entries.append(entry)
        if len(entries) >= 2:
            final_gap = entries[-2].sigma_star_sq - entries[-1].sigma_star_sq
            if final_gap < stop_tol:
                converged = True
                break
    return RefinementTrace(entries=tuple(entries), converged=converged, final_gap=final_gap,
                           problem=problem)
