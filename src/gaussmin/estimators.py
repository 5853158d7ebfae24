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
route, which samples the paths and solves, and its certified solution, built
once and shared by all estimates on that grid (a Gauss-Markov kernel's route
is its Markov form, with no Gram matrix and no factor).

Each sweep estimator takes its whole parameter list (u, x or eps) and makes
one pass over the paths. It is one ``Sweep``: a ``fold`` reduces a batch of
paths to every parameter's statistics, one parameter at a time, in the same
float operations as a one-element list, reading the batch's shared columns (Y,
the min and argmin, and each u's tilt: its survivors, their weights and the
argmin of its shifted path); and a ``finish`` turns the total into the
estimator's result. ``run_sweeps`` runs several sweeps on one (``Problem``,
``SamplerConfig``) in one pass: per batch it computes the functionals, and
each u's tilt (``_Batch.tilt``), once for every sweep that reads them, and it
is the one place that totals each sweep's folds, in path order: tuples by
position, counts, floats and histograms by ``+``, and log sums of weights
(``_LogSum``) by ``np.logaddexp``. A sweep's total is the same whichever other
sweeps share its pass, so each of the six public estimators is a sweep builder
(``tail_is_sweep``, ``tail_crude_sweep``, ``small_ball_sweep``,
``correction_sweep``, ``argmin_sweep``, ``mx_sweep``) and a one-sweep call,
and the CLI's ``argmin`` and a report study's ``tail`` and ``argmin`` stages
share one pass. ``tail_is`` also counts the crude hits in its pass, so the
CLI's ``tail`` makes one pass for both methods. ``correction_diagnostic`` runs
``tail_is``'s sweep for its whole u list, and its fold also reduces each u's
statistics per group of consecutive path indices, for a jackknife error bar on
its fit.

The batch is the one unit of a pass: of its memory and of its folds. A batch
holds ``gauss_sim.batch_rows(n)`` paths, set by the grid alone (7936 at 33
points, one block of 256 at 1025). ``run_sweeps`` adds the folds in path
order whatever the worker count, so every number is a deterministic function
of (seed, stream, n_paths, grid, parameter) that no worker count changes.
On a Markov form, a pass whose sweeps all read survivors only
(``Sweep.survivors_only``) holds in each batch only the paths that can still
survive, to the same totals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from . import optimizer
from .exceptions import EstimationError
from .gauss_sim import (Factorization, MarkovForm, PathBatch, PathFunctionals,
                        SamplerConfig, batch_rows, factorize, functionals, sample)
from .grids import Grid, as_points
from .kernels import Kernel
from .measure import GridMeasure
# certify stays importable here for perfbench/tracer.py
from .optimizer import OptimalSolution, certify  # noqa: F401

ESS_WARN_THRESHOLD = 100.0
JACKKNIFE_GROUPS = 10   # correction_diagnostic's groups of consecutive paths


@dataclass(frozen=True, eq=False)
class Problem:
    """One (kernel, grid), with its route and its certified solution, each
    built on first use and kept. The route maps the paths and gives the
    solution and its certificate: the kernel's checked ``MarkovForm`` on the
    grid (``Kernel.markov_form``), with no Gram matrix and no factor, or else
    the ``Factorization`` of its Gram matrix, whose factor is its PSD check."""

    kernel: Kernel
    grid: Grid

    def __post_init__(self):   # a grid off the kernel's domain fails here, not on first use
        self.kernel._check_domain(as_points(self.grid))

    @cached_property
    def route(self) -> MarkovForm | Factorization:
        form = self.kernel.markov_form(self.grid)
        return factorize(self.kernel.gram(self.grid)) if form is None else form

    @cached_property
    def solution(self) -> OptimalSolution:
        return optimizer.solve_simplex_qp(self.route, grid=self.grid)


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


@dataclass(frozen=True)
class _LogSum:
    """A log sum of weights (a float, or an array of them), as in a fold:
    ``+`` adds the sums, by ``np.logaddexp``."""

    log: float | np.ndarray

    def __add__(self, other: _LogSum) -> _LogSum:
        return _LogSum(np.logaddexp(self.log, other.log))


def _add(a, b):
    """a + b, position by position for tuples."""
    return tuple(map(_add, a, b)) if isinstance(a, tuple) else a + b


@dataclass(frozen=True)
class Sweep:
    """One estimator's share of a pass over the paths.

    ``fold`` reduces a ``_Batch`` to a tuple, and ``finish(total, config)``
    turns the total of the batch folds into the estimator's result.
    ``survivors_only``: ``fold`` adds nothing for a path with X <= 0 at a
    support point, so a pass whose sweeps all say so may leave such paths out
    of its batches (``gauss_sim.sample``).
    """

    fold: Callable[[_Batch], tuple]
    finish: Callable[[tuple, SamplerConfig], object]
    survivors_only: bool = False


class _Batch:
    """One batch of a pass's paths (``paths``), with the pass's path count
    (``n_paths``) and the columns its sweeps share, each computed once: the
    functionals against the optimal measure (``fn``) and each u's ``tilt``."""

    def __init__(self, paths: PathBatch, n_paths: int, problem: Problem):
        self.paths = paths
        self.n_paths = n_paths
        self._problem = problem
        self._tilts: dict[float, tuple] = {}

    @cached_property
    def fn(self) -> PathFunctionals:
        return functionals(self.paths, self._problem.solution.measure)

    def tilt(self, u: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """u's change of measure, built here alone, once per u for every sweep:
        (keep, log w, w, argmin). ``keep`` marks the rows whose X +
        ``_tilt_shift`` (X where that is None) is > 0 at every point, log w =
        -u Y / sigma*^2 and w weigh them, and argmin is each row's leftmost
        argmin of the shifted path (its min is read there), or None on X."""
        if u not in self._tilts:
            solution = self._problem.solution
            shift = _tilt_shift(solution, u)
            if shift is None:
                low, argmin = self.fn.min_value, None
            else:
                shifted = self.paths.values + shift
                argmin = shifted.argmin(axis=1)
                low = shifted[np.arange(argmin.size), argmin]
            keep = low > 0
            logw = -u * self.fn.y[keep] / solution.sigma_star_sq
            self._tilts[u] = keep, logw, np.exp(logw), argmin
        return self._tilts[u]


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweeps(problem: Problem, config: SamplerConfig, sweeps: Sequence[Sweep]) -> list:
    """Each sweep's result, from one pass over ``config``'s paths on ``problem``.

    The pass draws batches of ``gauss_sim.batch_rows(n)`` paths. Every
    sweep's ``fold`` reduces each batch, and this is the one place that totals
    folds: tuples add position by position, anything else by its ``+`` (a
    ``_LogSum`` by ``np.logaddexp``). A sweep's fold and total see the same
    operands whichever sweeps share the pass. With several workers (never
    more than the CPUs: more threads would only wait) the batches are
    computed concurrently but added in submission order, so each total is
    identical for any worker count.

    A route that builds its paths in stages is given the solution's support,
    and, when every sweep reads survivors only, completes only the paths that
    stay > 0 on its prefix's support points. A survivors-only fold then sees
    in each batch the rows it would have read from whole paths, in the same
    order, so its total is the same to the last bit.
    """
    route, grid = problem.route, problem.grid  # cached here, before workers read it
    rows = batch_rows(route.n)
    survivors_only = all(sweep.survivors_only for sweep in sweeps)
    support = None if route.prefix is None else problem.solution.support

    def run(start: int) -> tuple:   # the batch is freed before the next is drawn
        paths = sample(route, grid, config, start, min(rows, config.n_paths - start),
                       support, survivors_only)
        batch = _Batch(paths, config.n_paths, problem)
        return tuple(sweep.fold(batch) for sweep in sweeps)

    starts = range(0, config.n_paths, rows)
    workers = min(config.workers, _cpus())
    if workers == 1:
        totals = reduce(_add, map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = reduce(_add, pool.map(run, starts))
    return [sweep.finish(total, config) for sweep, total in zip(sweeps, totals)]


def _tilt_shift(solution: OptimalSolution, u: float) -> np.ndarray | None:
    """u (m_j / sigma*^2 - 1), exactly 0 on the support; None if that is every point."""
    shift = u * (solution.certificate / solution.sigma_star_sq - 1.0)
    shift[solution.support] = 0.0
    return shift if shift.any() else None


def _finite(us: Sequence[float]) -> list[float]:
    """The u list as floats, refused before any path is drawn if a u is not finite."""
    us = [float(u) for u in us]
    if not all(map(math.isfinite, us)):
        raise EstimationError(f"u must be finite; got {us}")
    return us


def _binomial_estimate(hits: int, config: SamplerConfig, meta: dict) -> Estimate:
    n = config.n_paths
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    meta = dict(meta, hits=int(hits), zero_hits=(hits == 0))
    return Estimate(value=p, stderr=stderr, n=n,
                    log_value=math.log(p) if p > 0 else -math.inf, meta=meta)


# ---------------------------------------------------------------------------
# tail estimators
# ---------------------------------------------------------------------------


def tail_crude(problem: Problem, us: Sequence[float], config: SamplerConfig) -> list[Estimate]:
    """Direct Monte Carlo estimates of P(min over grid > u), one per u, from one pass."""
    return run_sweeps(problem, config, [tail_crude_sweep(problem, us)])[0]


def tail_crude_sweep(problem: Problem, us: Sequence[float]) -> Sweep:
    """``tail_crude``'s sweep: per u, the paths with min X > u."""
    us = _finite(us)

    def fold(batch: _Batch) -> tuple:
        mins = batch.paths.values.min(axis=1)
        return tuple(int(np.count_nonzero(mins > u)) for u in us)

    def finish(hits: tuple, config: SamplerConfig) -> list[Estimate]:
        return [_binomial_estimate(h, config, {"method": "tail_crude", "u": u})
                for h, u in zip(hits, us)]

    return Sweep(fold, finish, survivors_only=all(u >= 0 for u in us))


def tail_is(problem: Problem, us: Sequence[float], config: SamplerConfig) -> list[Estimate]:
    """Change-of-measure estimates of P(min over grid > u), one per u, from one pass.

    Unbiased at every u for the grid minimum; the variance collapses for
    large u where the crude estimator sees no hits. Both estimators sample
    under the original law, so the same pass also counts the crude hits
    min X > u (the unshifted test, also where the tilt shifts the survival
    test): each estimate's ``meta["crude"]`` is the Estimate that
    ``tail_crude`` returns for that u on the same config.
    """
    return run_sweeps(problem, config, [tail_is_sweep(problem, us)])[0]


def _is_stats(tilt: tuple) -> tuple:
    """(survivors, sum w, sum w^2, log sum w as a ``_LogSum``) over a
    ``_Batch.tilt``'s survivors."""
    _, logw, w, _ = tilt
    if logw.size == 0:
        return 0, 0.0, 0.0, _LogSum(-math.inf)
    m = float(logw.max())
    return int(logw.size), float(w.sum()), float((w * w).sum()), _LogSum(m + math.log(
        float(np.exp(logw - m).sum())))


def tail_is_sweep(problem: Problem, us: Sequence[float]) -> Sweep:
    """``tail_is``'s sweep: a batch's fold is, per u, the crude hits and
    ``_is_stats``."""
    us = _finite(us)
    problem.solution  # solved here, not in a worker

    def fold(batch: _Batch) -> tuple:
        # per u, the crude hits of min X and the weights of the survival test
        low = batch.fn.min_value
        return tuple((int(np.count_nonzero(low > u)), *_is_stats(batch.tilt(u))) for u in us)

    def finish(total: tuple, config: SamplerConfig) -> list[Estimate]:
        return [_is_estimate(u, u_total, problem, config) for u, u_total in zip(us, total)]

    # the crude count of a u < 0 reads paths below 0
    return Sweep(fold, finish, survivors_only=all(u >= 0 for u in us))


def _is_estimate(u: float, total: tuple, problem: Problem, config: SamplerConfig) -> Estimate:
    """u's Estimate from its part of the total of ``tail_is_sweep``'s folds."""
    hits, n_surv, sum_w, sum_w2, lse = total
    lse = float(lse.log)
    s2 = problem.solution.sigma_star_sq
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
    meta = {"method": "tail_is", "u": u, "sigma_star_sq": s2,
            "n_surviving": n_surv, "ess": ess, "rel_stderr": rel_stderr,
            "log_only": value == 0.0 and lse > -math.inf,
            "crude": _binomial_estimate(hits, config, {"method": "tail_crude", "u": u})}
    return Estimate(value=value, stderr=stderr, n=n,
                    log_value=log_p if lse > -math.inf else -math.inf, meta=meta)


# ---------------------------------------------------------------------------
# small-ball probabilities
# ---------------------------------------------------------------------------


def small_ball(problem: Problem, eps_list: Sequence[float], config: SamplerConfig,
               mode: str = "range") -> list[Estimate]:
    """P(sup increment from the left endpoint < eps), or the Z* variant, one
    estimate per eps from one pass.

    mode "range": fraction of paths with max_i |X_i - X_0| < eps (1 on a
    singleton grid: there are no increments). mode "zstar": fraction with
    min_i (X_i - Y) > -eps, Y taken against the problem's optimal measure.
    """
    return run_sweeps(problem, config, [small_ball_sweep(problem, eps_list, mode)])[0]


def small_ball_sweep(problem: Problem, eps_list: Sequence[float], mode: str = "range") -> Sweep:
    """``small_ball``'s sweep: per eps, the paths inside the ball."""
    eps_list = [float(eps) for eps in eps_list]
    if any(not eps > 0 for eps in eps_list):
        raise ValueError("eps must be > 0")
    if mode == "range":
        def fold(batch: _Batch) -> tuple:
            x = batch.paths.values  # a singleton grid has no increments: deviation 0
            dev = np.abs(x[:, 1:] - x[:, :1]).max(axis=1, initial=0.0)
            return tuple(int(np.count_nonzero(dev < eps)) for eps in eps_list)
    elif mode == "zstar":
        problem.solution  # solved here, not in a worker

        def fold(batch: _Batch) -> tuple:
            gap = batch.fn.min_value - batch.fn.y
            return tuple(int(np.count_nonzero(gap > -eps)) for eps in eps_list)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'range' or 'zstar'")

    def finish(hits: tuple, config: SamplerConfig) -> list[Estimate]:
        return [_binomial_estimate(h, config, {"method": f"small_ball_{mode}", "eps": eps})
                for h, eps in zip(hits, eps_list)]

    return Sweep(fold, finish)


# ---------------------------------------------------------------------------
# correction diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectionDiagnostic:
    """Second-order tail behavior: D(u) = log p(u) + u^2/(2 sigma*^2).

    The exponent is the least-squares slope of log(-D) against log u; rows
    whose D is not finite and negative are excluded from the fit and flagged.
    All u are estimated on the same paths, and ``exponent_halfwidth`` is
    1.96 x the jackknife standard error of the slope over JACKKNIFE_GROUPS
    groups of consecutive paths (inf when a fit without some group has fewer
    than two usable points). ``group_stats[i][g]`` is u[i]'s (survivors,
    sum w, sum w^2, log sum w) over group g. The Markov full-density
    prediction for the slope is 2/3; the proved lower-bound exponent is
    1/(beta+1), for the kernel's roughness beta (``correction_diagnostic``).
    """

    rows: tuple[tuple[float, float, float], ...]   # (u, log_p, D)
    exponent: float
    intercept: float
    exponent_halfwidth: float
    estimates: tuple[Estimate, ...]
    group_stats: tuple[tuple[tuple[int, float, float, float], ...], ...]
    excluded: tuple[float, ...] = ()


def fit_correction_exponent(u_values: Sequence[float], log_p_values: Sequence[float],
                            sigma_sq: float) -> tuple[float, float, np.ndarray]:
    """Fit log(-D) = exponent * log u + intercept over points with finite D < 0.

    Returns (exponent, intercept, used_mask). The fit gives no error bar: the
    points of one sweep share their paths, so their errors are correlated,
    and ``correction_diagnostic`` takes a jackknife over path groups instead.
    A u where no path survives has log_p = D = -inf and is not used.
    """
    u = np.asarray(u_values, dtype=float)
    log_p = np.asarray(log_p_values, dtype=float)
    if u.ndim != 1 or u.shape != log_p.shape or u.size < 2:
        raise EstimationError("need matching u and log_p arrays with at least 2 entries")
    if np.any(u <= 0) or np.any(np.diff(u) <= 0):
        raise EstimationError("u values must be positive and strictly increasing")
    d = log_p + u * u / (2.0 * sigma_sq)
    used = np.isfinite(d) & (d < 0)
    if int(used.sum()) < 2:
        raise EstimationError(
            f"only {int(used.sum())} of {u.size} points have a finite D(u) < 0; cannot fit "
            "(check sigma*^2 or increase the sample size)")
    x = np.log(u[used])
    y = np.log(-d[used])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), used


def _group_stats(tilt: tuple, group: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_is_stats`` per path group: arrays of each group's survivors, sum w,
    sum w^2 and log sum w (a ``_LogSum``)."""
    keep, logw, w, _ = tilt
    g = group[keep]
    top = np.full(JACKKNIFE_GROUPS, -math.inf)
    np.maximum.at(top, g, logw)
    with np.errstate(divide="ignore"):   # a group with no survivor: log 0 = -inf
        lse = top + np.log(np.bincount(g, np.exp(logw - top[g]), JACKKNIFE_GROUPS))
    return (np.bincount(g, minlength=JACKKNIFE_GROUPS), np.bincount(g, w, JACKKNIFE_GROUPS),
            np.bincount(g, w * w, JACKKNIFE_GROUPS), _LogSum(lse))


def _jackknife_halfwidth(us: list[float], lse: np.ndarray, s2: float, n: int) -> float:
    """1.96 x the jackknife standard error of the fitted exponent, from each
    u's log sum w per path group (``lse``, one row per u); inf when a fit
    without some group fails."""
    n_groups = JACKKNIFE_GROUPS
    first = [-(-g * n // n_groups) for g in range(n_groups + 1)]   # first path of group g
    prefactor = -np.square(us) / (2.0 * s2)
    slopes = []
    for g in range(n_groups):
        rest = n - (first[g + 1] - first[g])
        # with no path left, every log sum w is -inf, and so every log p
        log_p = (np.logaddexp.reduce(np.delete(lse, g, axis=1), axis=1)
                 - math.log(max(rest, 1)) + prefactor)
        try:
            slopes.append(fit_correction_exponent(us, log_p, s2)[0])
        except EstimationError:
            return math.inf
    spread = np.asarray(slopes) - np.mean(slopes)
    return 1.96 * math.sqrt((n_groups - 1) / n_groups * float(spread @ spread))


def correction_diagnostic(problem: Problem, u_list: Sequence[float],
                          config: SamplerConfig) -> CorrectionDiagnostic:
    """Estimate D(u) over a u sweep and fit its growth exponent.

    One pass on stream ``config.stream + 1`` estimates every u: the
    estimates are exactly ``tail_is``'s on that stream. Errors of log p(u)
    on shared paths are positively correlated and largely cancel in the
    slope, which a regression error bar would take as independent, so the
    half-width is a jackknife over JACKKNIFE_GROUPS groups of consecutive
    paths: path j is in group j * JACKKNIFE_GROUPS // n_paths. The groups
    depend on the path index only, so no batch cut or worker count moves a
    survivor count. The exponent is to be read beside the proved lower-bound
    exponent 1/(beta+1) of a kernel of roughness beta, which the caller knows.
    """
    config = replace(config, stream=config.stream + 1)
    return run_sweeps(problem, config, [correction_sweep(problem, u_list)])[0]


def correction_sweep(problem: Problem, u_list: Sequence[float]) -> Sweep:
    """``correction_diagnostic``'s sweep: ``tail_is_sweep``'s fold, and each
    u's statistics per group of the pass's paths; its finish fits the
    exponent."""
    us = _finite(u_list)
    if len(us) < 2 or any(b <= a for a, b in zip(us, us[1:])) or us[0] <= 0:
        raise EstimationError("u_list must be at least 2 strictly increasing positive values")
    s2 = problem.solution.sigma_star_sq
    tail = tail_is_sweep(problem, us)

    def fold(batch: _Batch) -> tuple:
        group = batch.paths.index * JACKKNIFE_GROUPS // batch.n_paths
        return tail.fold(batch), tuple(_group_stats(batch.tilt(u), group) for u in us)

    def finish(total: tuple, config: SamplerConfig) -> CorrectionDiagnostic:
        estimates = tuple(tail.finish(total[0], config))
        groups = [(*g[:3], g[3].log) for g in total[1]]
        log_ps = [e.log_value for e in estimates]
        exponent, intercept, used = fit_correction_exponent(us, log_ps, s2)
        halfwidth = _jackknife_halfwidth(us, np.array([g[3] for g in groups]), s2,
                                         config.n_paths)
        rows = tuple((u, lp, lp + u * u / (2.0 * s2)) for u, lp in zip(us, log_ps))
        excluded = tuple(u for u, keep in zip(us, used) if not keep)
        group_stats = tuple(tuple(zip(*(column.tolist() for column in g))) for g in groups)
        return CorrectionDiagnostic(rows=rows, exponent=exponent, intercept=intercept,
                                    exponent_halfwidth=halfwidth, estimates=estimates,
                                    group_stats=group_stats, excluded=excluded)

    return Sweep(fold, finish, survivors_only=True)


# ---------------------------------------------------------------------------
# conditional argmin laws
# ---------------------------------------------------------------------------


def argmin_conditional(problem: Problem, us: Sequence[float], config: SamplerConfig
                       ) -> list[tuple[GridMeasure, float] | EstimationError]:
    """Weighted argmin histograms approximating the argmin law given min > u,
    one per u from one pass.

    Each path contributes the leftmost argmin of the tilted path X + u m /
    sigma*^2 with the weight of ``tail_is``; as u grows the histogram
    converges to the optimal measure. Each entry is (histogram, effective
    sample size), or the EstimationError of a u at which no path survives.
    """
    return run_sweeps(problem, config, [argmin_sweep(problem, us)])[0]


def argmin_sweep(problem: Problem, us: Sequence[float]) -> Sweep:
    """``argmin_conditional``'s sweep: per u, a batch's weighted histogram of
    the tilted argmin over the survivors, sum w and sum w^2."""
    us = _finite(us)
    if any(u < 0 for u in us):
        raise EstimationError("u must be >= 0")
    problem.solution  # solved here, not in a worker
    n_points = problem.grid.points.size

    def u_stats(batch: _Batch, u: float) -> tuple:
        keep, _, w, argmin = batch.tilt(u)
        argmin = batch.fn.argmin_index if argmin is None else argmin
        hist = np.bincount(argmin[keep], weights=w, minlength=n_points)
        return hist, float(w.sum()), float((w * w).sum())

    def fold(batch: _Batch) -> tuple:
        return tuple(u_stats(batch, u) for u in us)

    def finish(total: tuple, config: SamplerConfig
               ) -> list[tuple[GridMeasure, float] | EstimationError]:
        return [EstimationError(f"no paths with min > 0 survive at u={u}; no histogram")
                if sw <= 0 else (GridMeasure.from_raw(problem.grid, hist), sw * sw / sw2)
                for u, (hist, sw, sw2) in zip(us, total)]

    return Sweep(fold, finish, survivors_only=True)


def mx_conditional(problem: Problem, xs: Sequence[float], config: SamplerConfig
                   ) -> list[GridMeasure | EstimationError]:
    """Argmin histograms over paths with Y <= x and min > 0, one per x from one pass.

    As x decreases to 0 this law converges to the optimal measure. An entry
    is the EstimationError of an x that no path satisfies.
    """
    return run_sweeps(problem, config, [mx_sweep(problem, xs)])[0]


def mx_sweep(problem: Problem, xs: Sequence[float]) -> Sweep:
    """``mx_conditional``'s sweep: per x, a batch's argmin histogram over the
    paths with Y <= x and min > 0."""
    xs = [float(x) for x in xs]
    if any(not x > 0 for x in xs):
        raise EstimationError("x must be > 0")
    problem.solution  # solved here, not in a worker
    n_points = problem.grid.points.size

    def fold(batch: _Batch) -> tuple:
        fn = batch.fn
        survive = fn.min_value > 0
        return tuple(np.bincount(fn.argmin_index[survive & (fn.y <= x)], minlength=n_points)
                     for x in xs)

    def finish(hists: tuple, config: SamplerConfig) -> list[GridMeasure | EstimationError]:
        return [GridMeasure.from_raw(problem.grid, hist) if hist.sum() > 0
                else EstimationError(f"no paths satisfy Y <= {x} and min > 0; no histogram")
                for x, hist in zip(xs, hists)]

    return Sweep(fold, finish, survivors_only=True)
