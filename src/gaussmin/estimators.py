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
path map and certified solution, built once and shared by all estimates on
that grid (on a Gauss-Markov kernel from 129 points, without a Gram matrix).

Each sweep estimator takes its whole parameter list (u, x or eps) and makes
one pass over the paths. Its ``per_path`` step maps paths to per-path
columns: Y, the min and argmin, computed once, and the shifted min (and
argmin) of each u whose tilt shifts the survival test. Its ``fold`` reduces a
batch's columns to every parameter's statistics, one parameter at a time, in
the same float operations as a one-element list. ``_sweep`` is the one place
that totals the folds, in path order: tuples position by position, counts,
floats and histograms by ``+``, and log sums of weights (``_LogSum``) by
``np.logaddexp``; the estimator only finishes the total. ``tail_is`` also
counts the crude hits in its pass, so the CLI's ``tail`` makes one pass for
both methods. ``correction_diagnostic`` runs ``tail_is``'s pass for its whole
u list, and its fold also reduces each u's statistics per group of
consecutive path indices, for a jackknife error bar on its fit.

The batch is the unit of folding only: its paths are drawn and mapped tile by
tile (``gauss_sim.tiles``), and the columns are joined in path order before
the fold, so a pass over a fine grid holds one tile of paths, and the tile
size changes no output. ``_sweep`` adds the folds in path order whatever
the worker count, so every number here is a deterministic function of (seed,
stream, n, batch size, parameter) that no worker count changes. Counts
(crude, small-ball, Y <= x, the diagnostic's survivors per group) are integer
sums and so also independent of the batch size; the weighted estimators add
per-batch float sums, which a different batch size can move in the last bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from . import optimizer
from .exceptions import EstimationError
from .gauss_sim import (MARKOV_MIN_POINTS, Factorization, MarkovPaths, PathBatch,
                        SamplerConfig, factorize, functionals, markov_form_valid, sample,
                        tiles)
from .grids import Grid
from .kernels import Kernel
from .measure import GridMeasure
# certify stays importable here for perfbench/tracer.py
from .optimizer import OptimalSolution, certify  # noqa: F401

ESS_WARN_THRESHOLD = 100.0
JACKKNIFE_GROUPS = 10   # correction_diagnostic's groups of consecutive paths


@dataclass(frozen=True, eq=False)
class Problem:
    """One (kernel, grid), with what the sampler and the solver need of it,
    each computed on first use and kept.

    A Markov Problem (``markov`` is the kernel's Markov form (r, q): it passes
    ``gauss_sim.markov_form_valid``, on at least MARKOV_MIN_POINTS points)
    samples by the O(n) cumsum and solves on (r, q); nothing on it builds a
    Gram matrix or a factor. Any other Problem is dense: its ``sigma`` has one
    jittered Cholesky ``factor`` (also the PSD check of ``sigma``), which is
    both its ``path_map`` and the solver's factor. ``sigma`` and ``factor`` are
    lazy on either route, so they are built only where something reads them.
    """

    kernel: Kernel
    grid: Grid
    markov: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        form = self.kernel.markov_form(self.grid)   # also checks the grid's domain
        if (form is None or self.grid.points.size < MARKOV_MIN_POINTS
                or not markov_form_valid(*form)):
            form = None
        object.__setattr__(self, "markov", form)

    @property
    def route(self) -> str:
        """The sampler's and the solver's route: "markov" or "dense"."""
        return "dense" if self.markov is None else "markov"

    @cached_property
    def sigma(self) -> np.ndarray:
        sigma = self.kernel.gram(self.grid)
        sigma.setflags(write=False)
        return sigma

    @cached_property
    def factor(self) -> Factorization:
        return factorize(self.sigma)

    @cached_property
    def path_map(self) -> Factorization | MarkovPaths:
        return self.factor if self.markov is None else MarkovPaths.of(*self.markov)

    @cached_property
    def solution(self) -> OptimalSolution:
        if self.markov is None:
            return optimizer.solve_simplex_qp(self.sigma, grid=self.grid, factor=self.factor)
        return optimizer.solve_simplex_qp(self.markov, grid=self.grid)


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


def _sweep(problem: Problem, config: SamplerConfig,
           per_path: Callable[[PathBatch], Sequence[np.ndarray]],
           fold: Callable[..., tuple]) -> tuple:
    """The total of every batch's fold, added in path order.

    A batch is drawn tile by tile; ``per_path`` maps each tile to per-path
    columns, and ``fold`` reduces the batch's columns, joined in path order.
    This is the one place that totals folds: tuples add position by position,
    anything else by its ``+`` (a ``_LogSum`` by ``np.logaddexp``). With
    several workers the batches are computed concurrently but added in
    submission order, so the total is identical for any worker count.
    """
    paths, grid = problem.path_map, problem.grid  # cached here, before workers read it
    starts = range(0, config.n_paths, config.batch_size)

    def run(start: int) -> tuple:
        count = min(config.batch_size, config.n_paths - start)
        columns = [per_path(sample(paths, grid, config, tile_start, tile_rows))
                   for tile_start, tile_rows in tiles(paths, start, count)]
        if len(columns) == 1:
            return fold(*columns[0])
        return fold(*map(np.concatenate, zip(*columns)))

    if config.workers == 1:
        return reduce(_add, map(run, starts))
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return reduce(_add, pool.map(run, starts))


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


def tail_crude(problem: Problem, us: Sequence[float], config: SamplerConfig) -> list[Estimate]:
    """Direct Monte Carlo estimates of P(min over grid > u), one per u, from one pass."""
    us = [float(u) for u in us]

    def per_path(batch: PathBatch) -> tuple:
        return (batch.values.min(axis=1),)

    def fold(mins: np.ndarray) -> tuple:
        return tuple(int(np.count_nonzero(mins > u)) for u in us)

    hits = _sweep(problem, config, per_path, fold)
    return [_binomial_estimate(h, config, {"method": "tail_crude", "u": u})
            for h, u in zip(hits, us)]


def tail_is(problem: Problem, us: Sequence[float], config: SamplerConfig) -> list[Estimate]:
    """Change-of-measure estimates of P(min over grid > u), one per u, from one pass.

    Unbiased at every u for the grid minimum; the variance collapses for
    large u where the crude estimator sees no hits. Both estimators sample
    under the original law, so the same pass also counts the crude hits
    min X > u (the unshifted test, also where the tilt shifts the survival
    test): each estimate's ``meta["crude"]`` is the Estimate that
    ``tail_crude`` returns for that u on the same config.
    """
    us = [float(u) for u in us]
    total = _sweep(problem, config, *_is_sweep(problem, us))
    return [_is_estimate(u, u_total, problem, config) for u, u_total in zip(us, total)]


def _is_stats(u: float, s2: float, y: np.ndarray, low_min: np.ndarray) -> tuple:
    """(survivors, sum w, sum w^2, log sum w as a ``_LogSum``) over the paths
    whose tested min is > 0."""
    keep = low_min > 0
    logw = -u * y[keep] / s2
    if logw.size == 0:
        return 0, 0.0, 0.0, _LogSum(-math.inf)
    m = float(logw.max())
    w = np.exp(logw)
    return int(logw.size), float(w.sum()), float((w * w).sum()), _LogSum(m + math.log(
        float(np.exp(logw - m).sum())))


def _is_sweep(problem: Problem, us: list[float]) -> tuple[Callable, Callable]:
    """``tail_is``'s ``per_path`` and ``fold`` for ``us`` on ``problem``.

    A batch's fold is, per u, the crude hits and ``_is_stats``.
    """
    solution = problem.solution
    s2 = solution.sigma_star_sq
    measure = solution.measure
    shifts = [_tilt_shift(solution, u) for u in us]

    def per_path(batch: PathBatch) -> tuple:
        # Y, min X and, per u, the min of the path the survival test reads
        fn = functionals(batch, measure)
        return (fn.y, fn.min_value, *(fn.min_value if shift is None
                                      else (batch.values + shift).min(axis=1)
                                      for shift in shifts))

    def fold(y: np.ndarray, low: np.ndarray, *u_lows: np.ndarray) -> tuple:
        return tuple((int(np.count_nonzero(low > u)), *_is_stats(u, s2, y, u_low))
                     for u, u_low in zip(us, u_lows))

    return per_path, fold


def _is_estimate(u: float, total: tuple, problem: Problem, config: SamplerConfig) -> Estimate:
    """u's Estimate from its part of the total of ``_is_sweep``'s folds."""
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
    return Estimate(value=value, stderr=stderr, n=n, seed=config.seed,
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
    eps_list = [float(eps) for eps in eps_list]
    if any(not eps > 0 for eps in eps_list):
        raise ValueError("eps must be > 0")
    if mode == "range":
        def per_path(batch: PathBatch) -> tuple:
            x = batch.values  # a singleton grid has no increments: deviation 0
            return (np.abs(x[:, 1:] - x[:, :1]).max(axis=1, initial=0.0),)

        def fold(dev: np.ndarray) -> tuple:
            return tuple(int(np.count_nonzero(dev < eps)) for eps in eps_list)
    elif mode == "zstar":
        measure = problem.solution.measure

        def per_path(batch: PathBatch) -> tuple:
            fn = functionals(batch, measure)
            return (fn.min_value - fn.y,)

        def fold(gap: np.ndarray) -> tuple:
            return tuple(int(np.count_nonzero(gap > -eps)) for eps in eps_list)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'range' or 'zstar'")
    hits = _sweep(problem, config, per_path, fold)
    return [_binomial_estimate(h, config, {"method": f"small_ball_{mode}", "eps": eps})
            for h, eps in zip(hits, eps_list)]


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
    sum w, sum w^2, log sum w) over group g. ``beta`` is the roughness
    parameter of the kernel when known; 1/(beta+1) is then the proved
    lower-bound exponent, reported for comparison (the Markov full-density
    prediction for the slope itself is 2/3).
    """

    rows: tuple[tuple[float, float, float], ...]   # (u, log_p, D)
    exponent: float
    intercept: float
    exponent_halfwidth: float
    estimates: tuple[Estimate, ...]
    group_stats: tuple[tuple[tuple[int, float, float, float], ...], ...]
    excluded: tuple[float, ...] = ()
    beta: float | None = None

    @property
    def lower_bound_exponent(self) -> float | None:
        return 1.0 / (self.beta + 1.0) if self.beta is not None else None


def fit_correction_exponent(u_values: Sequence[float], log_p_values: Sequence[float],
                            sigma_sq: float) -> tuple[float, float, float, np.ndarray]:
    """Fit log(-D) = exponent * log u + intercept over points with finite D < 0.

    Returns (exponent, intercept, halfwidth, used_mask); the half-width is
    1.96 x the standard regression error of the slope (0 when only two
    points are used). A u where no path survives has log_p = D = -inf and
    is not used.
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
    m = x.size
    if m > 2:
        resid = y - (slope * x + intercept)
        s_sq = float(resid @ resid) / (m - 2)
        se = math.sqrt(s_sq / float(((x - x.mean()) ** 2).sum()))
        halfwidth = 1.96 * se
    else:
        halfwidth = 0.0
    return float(slope), float(intercept), halfwidth, used


def _group_stats(u: float, s2: float, y: np.ndarray, low_min: np.ndarray,
                 group: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_is_stats`` per path group: arrays of each group's survivors, sum w,
    sum w^2 and log sum w (a ``_LogSum``)."""
    keep = low_min > 0
    logw = -u * y[keep] / s2
    g = group[keep]
    top = np.full(JACKKNIFE_GROUPS, -math.inf)
    np.maximum.at(top, g, logw)
    w = np.exp(logw)
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


def correction_diagnostic(problem: Problem, u_list: Sequence[float], config: SamplerConfig,
                          beta: float | None = None) -> CorrectionDiagnostic:
    """Estimate D(u) over a u sweep and fit its growth exponent.

    One pass on stream ``config.stream + 1`` estimates every u: the
    estimates are exactly ``tail_is``'s on that stream. Errors of log p(u)
    on shared paths are positively correlated and largely cancel in the
    slope, so the half-width is not the regression's (which assumes
    independent points) but a jackknife over JACKKNIFE_GROUPS groups of
    consecutive paths: path j is in group j * JACKKNIFE_GROUPS // n_paths.
    The groups depend on the path index only, so no batch size, tile size
    or worker count moves a survivor count.
    """
    us = [float(u) for u in u_list]
    if len(us) < 2 or any(b <= a for a, b in zip(us, us[1:])) or us[0] <= 0:
        raise EstimationError("u_list must be at least 2 strictly increasing positive values")
    config = replace(config, stream=config.stream + 1)
    n = config.n_paths
    s2 = problem.solution.sigma_star_sq
    is_per_path, is_fold = _is_sweep(problem, us)

    def per_path(batch: PathBatch) -> tuple:
        columns = is_per_path(batch)
        first = batch.start_index
        return (*columns, np.arange(first, first + columns[0].size) * JACKKNIFE_GROUPS // n)

    def fold(*columns: np.ndarray) -> tuple:
        *columns, group = columns
        y, _, *u_lows = columns
        return is_fold(*columns), tuple(_group_stats(u, s2, y, u_low, group)
                                        for u, u_low in zip(us, u_lows))

    total, groups = _sweep(problem, config, per_path, fold)
    estimates = tuple(_is_estimate(u, u_total, problem, config) for u, u_total in zip(us, total))
    groups = [(*g[:3], g[3].log) for g in groups]
    log_ps = [e.log_value for e in estimates]
    exponent, intercept, _, used = fit_correction_exponent(us, log_ps, s2)
    halfwidth = _jackknife_halfwidth(us, np.array([g[3] for g in groups]), s2, n)
    rows = tuple((u, lp, lp + u * u / (2.0 * s2)) for u, lp in zip(us, log_ps))
    excluded = tuple(u for u, keep in zip(us, used) if not keep)
    group_stats = tuple(tuple(zip(*(column.tolist() for column in g))) for g in groups)
    return CorrectionDiagnostic(rows=rows, exponent=exponent, intercept=intercept,
                                exponent_halfwidth=halfwidth, estimates=estimates,
                                group_stats=group_stats, excluded=excluded, beta=beta)


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
    us = [float(u) for u in us]
    if any(not u >= 0 for u in us):
        raise EstimationError("u must be >= 0")
    solution = problem.solution
    s2 = solution.sigma_star_sq
    measure = solution.measure
    shifts = [_tilt_shift(solution, u) for u in us]
    n_points = problem.grid.points.size

    def u_stats(u: float, y: np.ndarray, low_min: np.ndarray, low_argmin: np.ndarray) -> tuple:
        keep = low_min > 0
        w = np.exp(-u * y[keep] / s2)
        hist = np.bincount(low_argmin[keep], weights=w, minlength=n_points)
        return hist, float(w.sum()), float((w * w).sum())

    def per_path(batch: PathBatch) -> list:
        # Y, then per u the min and argmin of the tilted path
        fn = functionals(batch, measure)
        columns = [fn.y]
        for shift in shifts:
            if shift is None:
                columns += [fn.min_value, fn.argmin_index]
            else:
                low = batch.values + shift
                columns += [low.min(axis=1), low.argmin(axis=1)]
        return columns

    def fold(y: np.ndarray, *lows: np.ndarray) -> tuple:
        return tuple(u_stats(u, y, lows[2 * i], lows[2 * i + 1]) for i, u in enumerate(us))

    results: list[tuple[GridMeasure, float] | EstimationError] = []
    for u, (hist, sw, sw2) in zip(us, _sweep(problem, config, per_path, fold)):
        if sw <= 0:
            results.append(EstimationError(
                f"no paths with min > 0 survive at u={u}; no histogram"))
        else:
            results.append((GridMeasure.from_raw(problem.grid, hist), sw * sw / sw2))
    return results


def mx_conditional(problem: Problem, xs: Sequence[float], config: SamplerConfig
                   ) -> list[GridMeasure | EstimationError]:
    """Argmin histograms over paths with Y <= x and min > 0, one per x from one pass.

    As x decreases to 0 this law converges to the optimal measure. An entry
    is the EstimationError of an x that no path satisfies.
    """
    xs = [float(x) for x in xs]
    if any(not x > 0 for x in xs):
        raise EstimationError("x must be > 0")
    measure = problem.solution.measure
    n_points = problem.grid.points.size

    def per_path(batch: PathBatch) -> tuple:
        fn = functionals(batch, measure)
        return fn.y, fn.min_value, fn.argmin_index

    def fold(y: np.ndarray, low: np.ndarray, argmin: np.ndarray) -> tuple:
        survive = low > 0
        return tuple(np.bincount(argmin[survive & (y <= x)], minlength=n_points) for x in xs)

    hists = _sweep(problem, config, per_path, fold)
    return [GridMeasure.from_raw(problem.grid, hist) if hist.sum() > 0
            else EstimationError(f"no paths satisfy Y <= {x} and min > 0; no histogram")
            for x, hist in zip(xs, hists)]
