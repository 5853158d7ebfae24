"""Minimize nu^T Sigma nu over the probability simplex, with certificates.

The minimizing measure of the covariance double integral on a grid solves a
convex QP over the simplex. Sigma comes in one of two forms, each a route that
feeds Sigma x and Sigma_PP^-1 1 on point sets P to the same two steps:

* theta step: theta = Sigma^{-1} 1. When theta >= 0 the KKT conditions hold
  with every grid point active, so nu* = theta / sum(theta). This covers every
  full-support kernel here (Ornstein-Uhlenbeck, power-exponential, modulated
  Brownian).
* NNLS otherwise: min over x >= 0 of x^T Sigma x / 2 - 1^T x, by Lawson &
  Hanson's active-set method, and nu* = x / sum(x).

The solver and ``certify`` take a route (``gauss_sim``), checked where it
was built, or a Gram matrix. Dense route (``Factorization``): the factor
L L^T = Sigma + lambda I of an n x n matrix (``factorize``, whose jitter
ladder is also the PSD check) gives theta = L^-T L^-1 1, and the NNLS solves
the same jittered problem, growing a factor of its active points by one row
per step. A ``Problem`` takes it only for a kernel without a valid Markov
form (``PowerExponential(alpha < 1)``, ``ExplicitGram``). Markov route
(``MarkovForm``): Sigma_ij = q_i q_j r_min(i,j), given as its form (r, q),
with no matrix, which a ``Problem`` whose kernel has a checked form on its
grid (``Kernel.markov_form``) takes at every grid size. Its ``theta_on``
solves Sigma_PP s = 1 on any point subset P in O(|P|), and its ``matvec`` is
O(n), so each active-set step of the NNLS is O(n).

The returned measure is certified through m = Sigma nu by the route's own
matvec: feasibility needs min_j m_j >= sigma*^2, with equality on the
support, within CERTIFY_TOL relative, and sigma*^2 is exactly nu^T m of the
returned weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NotPositiveSemidefiniteError, OptimizerError
from .gauss_sim import Factorization, MarkovForm, factorize, screen_gram
from .grids import MAX_LEVEL, DyadicGrid, Grid, PointGrid
from .kernels import ExplicitGram, Kernel
from .measure import GridMeasure

if TYPE_CHECKING:
    from .estimators import Problem


def __getattr__(name: str):
    # perfbench/tracer.py patches gaussmin.optimizer.cho_factor; it is imported
    # on that first lookup, so an untraced run loads no scipy module
    if name == "cho_factor":
        from scipy.linalg import cho_factor
        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SUPPORT_TOL = 1e-9          # relative weight below which a point is off-support
CERTIFY_TOL = 1e-8          # relative tolerance of a certificate's slack and support
NNLS_TOL = 1e-12            # NNLS: a point joins while 1 - (Sigma x)_j exceeds this


# ---------------------------------------------------------------------------
# result types
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


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal grid measure with the ``CertificateReport`` that passed it.

    Invariants, with tol = CERTIFY_TOL: min_j m_j >= sigma_star_sq * (1 - tol);
    |m_j - sigma_star_sq| <= tol * sigma_star_sq for j in support; sigma_star_sq
    = nu^T Sigma nu of ``measure.weights``, exactly.
    """

    measure: GridMeasure
    report: CertificateReport
    method: str = "theta"            # "theta" or "nnls"
    iterations: int = 0              # active-set steps; 0 on the theta step

    @property
    def sigma_star_sq(self) -> float:
        return self.report.sigma_sq

    @property
    def certificate(self) -> np.ndarray:
        """m_j = (Sigma nu)_j."""
        return self.report.m

    @property
    def support(self) -> np.ndarray:
        """Indices with weight > SUPPORT_TOL relative to the largest."""
        w = self.measure.weights
        return np.nonzero(w > SUPPORT_TOL * w.max())[0]


@dataclass(frozen=True)
class RefinementEntry:
    """One level of a refinement."""

    k: int
    sigma_star_sq: float
    measure: GridMeasure


@dataclass(frozen=True)
class RefinementTrace:
    """Solutions over increasing dyadic levels; sigma*^2_k is nonincreasing.

    ``problem`` is the final level's; the lower levels' Problems are not kept.
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
# certification
# ---------------------------------------------------------------------------


def certify(sigma: np.ndarray | Factorization | MarkovForm,
            measure: GridMeasure) -> CertificateReport:
    """Report first-order optimality of ``measure`` for ``sigma``.

    ``sigma`` is a route, checked when it was built, or a Gram matrix (module
    doc). Always returns a report; ``passed`` is the verdict at relative
    tolerance CERTIFY_TOL. A matrix is screened first, since it may come from
    outside a ``Problem``: it must be square, finite, symmetric, with a
    nonnegative diagonal and Cauchy-Schwarz.
    """
    if isinstance(sigma, (Factorization, MarkovForm)):
        n, matvec = sigma.n, sigma.matvec
    else:
        sigma = _screened_gram(sigma)
        n, matvec = sigma.shape[0], sigma.dot
    w = measure.weights
    if w.size != n:
        raise OptimizerError(f"measure has {w.size} weights for a {n}-point Gram")
    return _report(matvec(w), w)


def _report(m: np.ndarray, w: np.ndarray) -> CertificateReport:
    """The certificate of weights ``w`` with mean vector m = Sigma w."""
    sigma_sq = float(w @ m)
    support = w > SUPPORT_TOL * w.max()
    min_slack = float(m.min() - sigma_sq)
    max_violation = float(np.abs(m[support] - sigma_sq).max())
    tol = CERTIFY_TOL * sigma_sq
    passed = bool(min_slack >= -tol and max_violation <= tol)
    return CertificateReport(m=m, sigma_sq=sigma_sq, min_slack=min_slack,
                             max_support_violation=max_violation, passed=passed)


def _screened_gram(sigma: np.ndarray) -> np.ndarray:
    """``sigma`` made exactly symmetric, once it passes certify's screen."""
    sigma, scale = screen_gram(sigma)
    d = np.diag(sigma)
    if np.any(d < -1e-12 * scale):
        raise NotPositiveSemidefiniteError("negative diagonal entry")
    # Cauchy-Schwarz necessary condition, cheap O(n^2) screen
    bound = np.sqrt(np.outer(np.maximum(d, 0), np.maximum(d, 0)))
    if np.any(np.abs(sigma) > bound + 1e-8 * scale):
        raise NotPositiveSemidefiniteError("off-diagonal entry violates Cauchy-Schwarz")
    return sigma


def _active_set(route: Factorization | MarkovForm) -> tuple[np.ndarray, int]:
    """Lawson & Hanson's active set for min x^T Sigma x / 2 - 1^T x, x >= 0.

    On the route's Sigma x (``matvec``) and solves of Sigma_PP s = 1 on the
    sorted points P = idx (``theta_on``), each step adds the point of largest
    dual 1 - (Sigma x)_j to P, solves for s, and moves x toward s, dropping
    the points that reach 0 first, until s > 0 on P. A point whose own s_j is
    not positive when it joins is skipped until x next changes (Lawson &
    Hanson's guard against cycling).
    """
    n, matvec, theta_on = route.n, route.matvec, route.theta_on
    x = np.zeros(n)
    passive, skipped = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for step in range(3 * n):
        dual = 1.0 - matvec(x)
        dual[passive | skipped] = -np.inf
        j = int(dual.argmax())
        if dual[j] <= NNLS_TOL:
            return x, step
        passive[j] = True
        idx = np.flatnonzero(passive)
        s = theta_on(idx)
        if s[np.searchsorted(idx, j)] <= 0:
            passive[j], skipped[j] = False, True
            continue
        skipped[:] = False
        while s.min() <= 0:
            xp = x[idx]
            neg = np.flatnonzero(s <= 0)
            ratio = xp[neg] / (xp[neg] - s[neg])
            first = int(ratio.argmin())
            xp += ratio[first] * (s - xp)
            xp[neg[first]] = 0.0
            keep = xp > 0
            x[idx] = np.where(keep, xp, 0.0)
            passive[idx[~keep]] = False
            idx = idx[keep]
            s = theta_on(idx)
        x[idx] = s
    raise OptimizerError(f"NNLS did not converge in {3 * n} steps on the {route.name} route")


# ---------------------------------------------------------------------------
# solver and refinement
# ---------------------------------------------------------------------------


def solve_simplex_qp(sigma: np.ndarray | Factorization | MarkovForm,
                     grid: Grid | None = None) -> OptimalSolution:
    """Solve min w^T Sigma w over the probability simplex with a certificate.

    ``sigma`` is a route, checked when it was built (a ``Problem`` passes its
    own), or a Gram matrix, which takes the dense route of ``factorize(sigma)``
    (module doc). ``grid`` labels the result's measure; index positions are
    used when absent.
    """
    route = sigma if isinstance(sigma, (Factorization, MarkovForm)) else factorize(sigma)
    n = route.n
    if grid is None:
        grid = PointGrid(np.arange(n, dtype=float))
    elif grid.points.size != n:
        raise OptimizerError(f"grid has {grid.points.size} points for a {n}x{n} matrix")

    theta = route.theta_on(np.arange(n))
    if np.all(theta >= -1e-12 * float(np.abs(theta).max())):
        # KKT conditions hold with the full active set
        w, steps, method = theta, 0, "theta"
    else:
        (w, steps), method = _active_set(route), "nnls"
    measure = GridMeasure.from_raw(grid, w)
    report = _report(route.matvec(measure.weights), measure.weights)
    if not report.passed:
        raise OptimizerError(
            f"certificate violated: min slack {report.min_slack:.3e}, support deviation "
            f"{report.max_support_violation:.3e} for sigma*^2 {report.sigma_sq:.12g}")
    return OptimalSolution(measure=measure, report=report, method=method, iterations=steps)


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
