"""Monte Carlo estimators for the minimum's tail, small balls and argmin law.

The change-of-measure identity drives everything: with sigma*^2 the optimal
energy, Y the integral of the path against the optimal measure and
m = Sigma nu* its certificate (under the tilt X has mean u m / sigma*^2),

    P(min X > u) = exp(-u^2 / (2 sigma*^2))
                   * E[exp(-u Y / sigma*^2) 1(min_j (X_j + u (m_j / sigma*^2 - 1)) > 0)].

The shift is 0 on the support of nu*, where m_j = sigma*^2, and positive off
it; with full support the indicator is 1(min X > 0). Paths are sampled under
the ORIGINAL law; the tilt lives entirely in the weight, so the estimator is
exact (not asymptotic) on the grid -- but only for the certified optimum.
Every estimator therefore takes a ``Problem``: one (kernel, grid) with its
Gram matrix, Cholesky factor and certified solution, built once and shared by
all estimates on that grid. All estimators stream batches whose content is
independent of batch size and worker count, so every number here is a
deterministic function of (seed, stream, n, parameters).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import optimizer
from .exceptions import EstimationError
from .gauss_sim import Factorization, PathBatch, SamplerConfig, factorize, functionals, sample
from .grids import Grid
from .kernels import Kernel
from .measure import GridMeasure
# certify stays importable here for perfbench/tracer.py
from .optimizer import OptimalSolution, certify  # noqa: F401

ESS_WARN_THRESHOLD = 100.0


@dataclass(frozen=True, eq=False)
class Problem:
    """One (kernel, grid): its Gram matrix ``sigma``, built once, with its one
    jittered Cholesky ``factor`` (also the PSD check of ``sigma``), which the
    sampler and the solver share, and the solver's certified ``solution``, each
    computed on first use and kept.
    """

    kernel: Kernel
    grid: Grid
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = self.kernel.gram(self.grid)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    @cached_property
    def factor(self) -> Factorization:
        return factorize(self.sigma)

    @cached_property
    def solution(self) -> OptimalSolution:
        return optimizer.solve_simplex_qp(self.sigma, grid=self.grid, factor=self.factor)


@dataclass(frozen=True)
class Estimate:
    """A probability estimate with its Monte Carlo error.

    ``log_value`` is computed in log space (log-sum-exp over weights) and
    stays finite far beyond the underflow point of ``value``; it is -inf
    exactly when value = 0.
    """

    value: float
    stderr: float
    n: int
    seed: int
    log_value: float
    meta: dict

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ValueError(f"probability estimate {self.value} outside [0, 1]")
        if self.value > 0 and abs(self.log_value - math.log(self.value)) > 1e-9:
            raise ValueError("log_value inconsistent with value")
        if self.value == 0 and self.log_value != -math.inf and not self.meta.get("log_only"):
            raise ValueError("value 0 requires log_value -inf unless flagged log_only")


# ---------------------------------------------------------------------------
# batch fan-out
# ---------------------------------------------------------------------------


def _map_ordered(problem: Problem, config: SamplerConfig,
                 fn: Callable[[PathBatch], tuple]) -> Iterator[tuple]:
    """Apply fn to every batch, yielding results in path order.

    With several workers the batches are computed concurrently but reduced in
    submission order, so the folded result is identical for any worker count.
    """
    factor, grid = problem.factor, problem.grid  # cached here, before workers read it
    plan = [(s, min(config.batch_size, config.n_paths - s))
            for s in range(0, config.n_paths, config.batch_size)]

    def run(start: int, count: int) -> tuple:
        return fn(sample(factor, grid, config, start, count))

    if config.workers == 1:
        for start, count in plan:
            yield run(start, count)
        return
    ahead = config.workers + 2
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        pending = deque(pool.submit(run, *p) for p in plan[:ahead])
        for p in plan[ahead:]:
            yield pending.popleft().result()
            pending.append(pool.submit(run, *p))
        while pending:
            yield pending.popleft().result()


def _tilt_shift(solution: OptimalSolution, u: float) -> np.ndarray | None:
    """u (m_j / sigma*^2 - 1), exactly 0 on the support; None if that is every point."""
    shift = u * (solution.certificate / solution.sigma_star_sq - 1.0)
    shift[solution.support] = 0.0
    return shift if shift.any() else None


def _binomial_estimate(hits: int, config: SamplerConfig, meta: dict) -> Estimate:
    n = config.n_paths
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    meta = dict(meta, hits=int(hits), zero_hits=(hits == 0))
    return Estimate(value=p, stderr=stderr, n=n, seed=config.seed,
                    log_value=math.log(p) if p > 0 else -math.inf, meta=meta)


# ---------------------------------------------------------------------------
# tail estimators
# ---------------------------------------------------------------------------


def tail_crude(problem: Problem, u: float, config: SamplerConfig) -> Estimate:
    """Direct Monte Carlo estimate of P(min over grid > u)."""
    hits = 0
    for (h,) in _map_ordered(problem, config,
                             lambda b: (int(np.count_nonzero(b.values.min(axis=1) > u)),)):
        hits += h
    return _binomial_estimate(hits, config, {"method": "tail_crude", "u": float(u)})


def tail_is(problem: Problem, u: float, config: SamplerConfig) -> Estimate:
    """Change-of-measure estimate of P(min over grid > u).

    Unbiased at every u for the grid minimum; the variance collapses for
    large u where the crude estimator sees no hits.
    """
    solution = problem.solution
    s2 = solution.sigma_star_sq
    measure = solution.measure
    shift = _tilt_shift(solution, u)

    def batch_stats(batch: PathBatch) -> tuple:
        fn = functionals(batch, measure, shift)
        keep = fn.min_value > 0
        logw = -u * fn.y[keep] / s2
        if logw.size == 0:
            return 0, 0.0, 0.0, -math.inf
        m = float(logw.max())
        w = np.exp(logw)
        return int(logw.size), float(w.sum()), float((w * w).sum()), m + math.log(
            float(np.exp(logw - m).sum()))

    n_surv, sum_w, sum_w2, lse = 0, 0.0, 0.0, -math.inf
    for ns, sw, sw2, batch_lse in _map_ordered(problem, config, batch_stats):
        n_surv += ns
        sum_w += sw
        sum_w2 += sw2
        lse = float(np.logaddexp(lse, batch_lse))
    n = config.n_paths
    log_prefactor = -u * u / (2.0 * s2)
    log_p = lse - math.log(n) + log_prefactor
    mean_w = sum_w / n
    # linear value when it stays in the normal float range (so u=0 is
    # bit-identical to the crude estimator); pure log space below that
    value = math.exp(log_prefactor) * mean_w if log_p > -645 else 0.0
    var_w = max(sum_w2 - n * mean_w * mean_w, 0.0) / max(n - 1, 1)
    stderr = math.exp(log_prefactor) * math.sqrt(var_w / n) if log_p > -645 else 0.0
    rel_stderr = math.sqrt(var_w / n) / mean_w if mean_w > 0 else math.inf
    ess = (sum_w * sum_w / sum_w2) if sum_w2 > 0 else 0.0
    meta = {"method": "tail_is", "u": float(u), "sigma_star_sq": s2,
            "n_surviving": n_surv, "ess": ess, "rel_stderr": rel_stderr,
            "log_only": value == 0.0 and lse > -math.inf}
    return Estimate(value=value, stderr=stderr, n=n, seed=config.seed,
                    log_value=log_p if lse > -math.inf else -math.inf, meta=meta)


# ---------------------------------------------------------------------------
# small-ball probabilities
# ---------------------------------------------------------------------------


def small_ball(problem: Problem, eps: float, config: SamplerConfig,
               mode: str = "range") -> Estimate:
    """P(sup increment from the left endpoint < eps), or the Z* variant.

    mode "range": fraction of paths with max_i |X_i - X_0| < eps (1 on a
    singleton grid: there are no increments). mode "zstar": fraction with
    min_i (X_i - Y) > -eps, Y taken against the problem's optimal measure.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if mode == "range":
        def count(batch: PathBatch) -> tuple:
            x = batch.values
            if x.shape[1] == 1:
                return (x.shape[0],)
            dev = np.abs(x[:, 1:] - x[:, :1]).max(axis=1)
            return (int(np.count_nonzero(dev < eps)),)
    elif mode == "zstar":
        measure = problem.solution.measure

        def count(batch: PathBatch) -> tuple:
            fn = functionals(batch, measure)
            return (int(np.count_nonzero(fn.min_value - fn.y > -eps)),)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'range' or 'zstar'")
    hits = sum(h for (h,) in _map_ordered(problem, config, count))
    return _binomial_estimate(hits, config,
                              {"method": f"small_ball_{mode}", "eps": float(eps)})


# ---------------------------------------------------------------------------
# correction diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectionDiagnostic:
    """Second-order tail behavior: D(u) = log p(u) + u^2/(2 sigma*^2).

    The exponent is the least-squares slope of log(-D) against log u; rows
    with D >= 0 are excluded from the fit and flagged. ``beta`` is the
    roughness parameter of the kernel when known; 1/(beta+1) is then the
    proved lower-bound exponent, reported for comparison (the Markov
    full-density prediction for the slope itself is 2/3).
    """

    rows: tuple[tuple[float, float, float], ...]   # (u, log_p, D)
    exponent: float
    intercept: float
    exponent_halfwidth: float
    estimates: tuple[Estimate, ...]
    excluded: tuple[float, ...] = ()
    beta: float | None = None

    @property
    def lower_bound_exponent(self) -> float | None:
        return 1.0 / (self.beta + 1.0) if self.beta is not None else None


def fit_correction_exponent(u_values: Sequence[float], log_p_values: Sequence[float],
                            sigma_sq: float) -> tuple[float, float, float, np.ndarray]:
    """Fit log(-D) = exponent * log u + intercept over points with D < 0.

    Returns (exponent, intercept, halfwidth, used_mask); the half-width is
    1.96 x the standard regression error of the slope (0 when only two
    points are used).
    """
    u = np.asarray(u_values, dtype=float)
    log_p = np.asarray(log_p_values, dtype=float)
    if u.ndim != 1 or u.shape != log_p.shape or u.size < 2:
        raise EstimationError("need matching u and log_p arrays with at least 2 entries")
    if np.any(u <= 0) or np.any(np.diff(u) <= 0):
        raise EstimationError("u values must be positive and strictly increasing")
    d = log_p + u * u / (2.0 * sigma_sq)
    used = d < 0
    if int(used.sum()) < 2:
        raise EstimationError(
            f"only {int(used.sum())} of {u.size} points have D(u) < 0; cannot fit "
            "(check sigma*^2 or increase the sample size)")
    x = np.log(u[used])
    y = np.log(-d[used])
    slope, intercept = np.polyfit(x, y, 1)
    m = x.size
    if m > 2:
        resid = y - (slope * x + intercept)
        s_sq = float(resid @ resid) / (m - 2)
        se = math.sqrt(s_sq / float(((x - x.mean()) ** 2).sum()))
        halfwidth = 1.96 * se
    else:
        halfwidth = 0.0
    return float(slope), float(intercept), halfwidth, used


def correction_diagnostic(problem: Problem, u_list: Sequence[float], config: SamplerConfig,
                          beta: float | None = None) -> CorrectionDiagnostic:
    """Estimate D(u) over a u sweep and fit its growth exponent.

    Each u gets a fresh substream (stream offsets 1, 2, ...) so the fit's
    points are independent; everything remains reproducible from the seed.
    """
    us = [float(u) for u in u_list]
    if len(us) < 2 or any(b <= a for a, b in zip(us, us[1:])) or us[0] <= 0:
        raise EstimationError("u_list must be at least 2 strictly increasing positive values")
    estimates = tuple(
        tail_is(problem, u, replace(config, stream=config.stream + 1 + i))
        for i, u in enumerate(us))
    log_ps = [e.log_value for e in estimates]
    s2 = problem.solution.sigma_star_sq
    exponent, intercept, halfwidth, used = fit_correction_exponent(us, log_ps, s2)
    rows = tuple((u, lp, lp + u * u / (2.0 * s2)) for u, lp in zip(us, log_ps))
    excluded = tuple(u for u, keep in zip(us, used) if not keep)
    return CorrectionDiagnostic(rows=rows, exponent=exponent, intercept=intercept,
                                exponent_halfwidth=halfwidth, estimates=estimates,
                                excluded=excluded, beta=beta)


# ---------------------------------------------------------------------------
# conditional argmin laws
# ---------------------------------------------------------------------------


def argmin_conditional(problem: Problem, u: float,
                       config: SamplerConfig) -> tuple[GridMeasure, float]:
    """Weighted argmin histogram approximating the argmin law given min > u.

    Each path contributes the leftmost argmin of the tilted path X + u m /
    sigma*^2 with the weight of ``tail_is``; as u grows the histogram
    converges to the optimal measure. Returns (histogram, effective sample size).
    """
    if u < 0:
        raise EstimationError("u must be >= 0")
    solution = problem.solution
    s2 = solution.sigma_star_sq
    measure = solution.measure
    shift = _tilt_shift(solution, u)
    n_points = problem.grid.points.size

    def batch_stats(batch: PathBatch) -> tuple:
        fn = functionals(batch, measure, shift)
        keep = fn.min_value > 0
        w = np.exp(-u * fn.y[keep] / s2)
        hist = np.bincount(fn.argmin_index[keep], weights=w, minlength=n_points)
        return hist, float(w.sum()), float((w * w).sum())

    hist = np.zeros(n_points)
    sum_w = sum_w2 = 0.0
    for h, sw, sw2 in _map_ordered(problem, config, batch_stats):
        hist += h
        sum_w += sw
        sum_w2 += sw2
    if sum_w <= 0:
        raise EstimationError(f"no paths with min > 0 survive at u={u}; no histogram")
    ess = sum_w * sum_w / sum_w2
    return GridMeasure.from_raw(problem.grid, hist), ess


def mx_conditional(problem: Problem, x: float, config: SamplerConfig) -> GridMeasure:
    """Argmin histogram over paths with Y <= x and min > 0.

    As x decreases to 0 this law converges to the optimal measure.
    """
    if x <= 0:
        raise EstimationError("x must be > 0")
    measure = problem.solution.measure
    n_points = problem.grid.points.size

    def batch_stats(batch: PathBatch) -> tuple:
        fn = functionals(batch, measure)
        keep = (fn.min_value > 0) & (fn.y <= x)
        return (np.bincount(fn.argmin_index[keep], minlength=n_points),)

    hist = np.zeros(n_points)
    for (h,) in _map_ordered(problem, config, batch_stats):
        hist += h
    if hist.sum() <= 0:
        raise EstimationError(f"no paths satisfy Y <= {x} and min > 0; no histogram")
    return GridMeasure.from_raw(problem.grid, hist)
