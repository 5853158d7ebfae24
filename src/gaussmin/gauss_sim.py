"""Exact sampling of the grid Gaussian vector with reproducible streams.

Sampling is block-addressed: path j is row j mod BLOCK_ROWS of block
j // BLOCK_ROWS, and a block's (BLOCK_ROWS, n) table is drawn by numpy's
ziggurat (``Generator.standard_normal``) from an SFC64 generator seeded by the
fixed-width words of (seed, stream, block). So path j is the same array no
matter how a batch cuts the paths, the order of generation, or how many
workers produced it; a batch that starts or ends inside a block draws that
block whole and keeps the rows it owns.

A route is a (kernel, grid)'s covariance Sigma, checked once where it is
built: it maps the normals xi to paths X (``paths``), and gives the solver
Sigma w (``matvec``) and Sigma_PP^-1 1 on point sets P (``theta_on``). The
dense route, ``Factorization``, holds the Gram matrix and its (jittered)
Cholesky factor L from ``factorize``: X = xi L^T, O(n^2) per path. A
Gauss-Markov kernel, R(s, t) = q(s) q(t) r(min(s, t)), has a ``MarkovForm``
(r, q), with no Gram matrix: X = q W(r) for a Brownian motion W. Below
MARKOV_MIN_POINTS points its paths are xi L^T for its exact lower factor
L_ij = q_i sqrt(r_j - r_(j-1)), j <= i. Nothing on this route is jittered,
so its paths have the law its certificate is for.

From MARKOV_MIN_POINTS points a Markov form builds its paths coarse to fine
(``Prefix``), in two stages with their own generators, seeded by the words of
(seed, stream, block, stage):

- stage 0 draws a (BLOCK_ROWS, PREFIX_INTERVALS + 1) table per block: W at
  the prefix, PREFIX_INTERVALS + 1 points from the first to the last, by a
  cumsum of its steps;
- stage 1 completes a row: a free cumsum of n - 1 normals times sqrt(dr),
  pinned to W at the prefix by the Brownian bridge, W_j = W_a + (C_j - C_a)
  + lambda_j (W_b - W_a - (C_b - C_a)) on each interval a < j <= b, with
  lambda_j = (r_j - r_a) / (r_b - r_a). This is exact: given W_a and W_b,
  the bridge term is independent of C_b - C_a.

A row is alive when X > 0 at every prefix point in a given support (the
optimal measure's), and the stage-1 table holds the block's alive rows first,
each in row order, then the others. So an alive row is the same path whether
a batch completes only the alive rows or every row: the estimators read
nothing of a row with X <= 0 at a support point (``estimators.Sweep``). A
batch of such rows is ``staged``: its Y is each row's own dot product, since
a matrix product rounds a row's Y by its place in the batch.

Finiteness is checked once per ``Problem``, not per batch: ``factorize``
refuses a sigma or factor with a NaN or inf entry, and ``MarkovForm.of`` a
form with an infinite variance. The normals satisfy |xi| < 13.8:
the ziggurat's layers lie within x_R = 3.654, and its tail draws
x_R - log1p(-U) / x_R with a 53-bit uniform U < 1, so at most
x_R + 53 log(2) / x_R. So every path value is finite: a product path has
|X_i| < 13.8 sqrt(n (sigma_ii + jitter)), by Cauchy-Schwarz on row i of L.
A staged path has |X_j| < 45 sqrt(n sigma_jj) up to rounding: on j's interval
of w points, |W_a| < 13.8 sqrt(33 r_a), |C_j - C_a| and lambda_j |C_b - C_a|
are < 13.8 sqrt(w r_j), and lambda_j |W_b| < 13.8 sqrt(66 r_j), since
lambda_j^2 r_b <= 2 r_j; with w < n and n >= MARKOV_MIN_POINTS they add up to
less than 45 sqrt(n r_j).

A pass of the estimators draws batches of ``batch_rows(n)`` paths, set by the
grid alone: whole blocks of at most 2 MiB of normals, or one block where a
block is larger (from 1025 points), and, where a matrix product maps them,
their X. So a pass draws each block once at every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .exceptions import GridMismatchError, NotPositiveSemidefiniteError
from .grids import Grid

if TYPE_CHECKING:
    from .measure import GridMeasure

# Paths per block of the normal table. Measured per value (one thread): 13.3
# ns at 33 points and 12.4 ns at 1025 with 256 rows, against 17 and 12 ns with
# 64. A batch is never less than one block (``batch_rows``).
BLOCK_ROWS = 256
DEFAULT_JITTER_START = 1e-12
DEFAULT_JITTER_MAX = 1e-6
# Smallest grid whose Markov form builds its paths coarse to fine (``Prefix``)
# rather than by the product with its lower factor. Measured on OU passes (2-core
# Xeon, one BLAS thread, best of 3), product / staged: tail_is at u = 0, 1, 2,
# which completes only the alive paths, 0.58 / 0.45 s per 400k paths at 65
# points, 0.49 / 0.27 per 200k at 129 and 0.59 / 0.18 per 100k at 257;
# small_ball, which completes every path, 0.66 / 1.18, 0.69 / 1.01 and 0.80 /
# 0.88 s. So from 129 points the staged paths cut a survivors-only pass by
# 45-70% and make a whole-path pass 1.1-1.5x slower; at 65 they would save 23%
# on the one and cost the other 1.8x. The threshold accepts that slowdown with
# no measured share of the two kinds of pass: no benchmark workload runs a
# whole-path pass from 129 points.
MARKOV_MIN_POINTS = 129
# Intervals of a staged path's prefix (``Prefix``): stage 0 draws W at
# PREFIX_INTERVALS + 1 points of every path. Measured on tail_is passes (2-core
# Xeon, one BLAS thread, best of 3) with 8, 16, 32 and 64 intervals: example1
# at 1025 points, 50k paths, u=3: 0.40, 0.36, 0.34, 0.37 s, at 251, 241, 241
# and 261 normals per path; at 257 points, 100k paths: 0.18, 0.19, 0.21, 0.35
# s; OU at 129 points, 200k paths, u = 0, 1, 2: 0.21, 0.23, 0.30, 0.59 s. So
# 32 is the fastest at 1025 points, and within 0.1 s of 8 per 200k paths below.
PREFIX_INTERVALS = 32
# Paths, and normals (8 B each, 2 MiB: one core's L2 cache), per batch at most
# (``batch_rows``): 16384 paths up to 16 points, 7936 at 33, 1792 at 129 and one
# block from 513 points. Median time of tail_is passes (2-core Xeon, one BLAS
# thread, 7 runs) at 2^17, 2^18, 2^19, 2^20 and 2^21 values: OU k=5, 500k paths,
# 5 u: 0.31, 0.33, 0.32, 0.39, 0.38 s; k=6: 0.63, 0.59, 0.59, 0.60, 0.69 s;
# example1 k=10, 50k paths, u=3: 0.87, 0.86, 0.85, 0.89, 0.92 s. 2^17 to 2^19
# tie within the spread of a second run, where 2^17 was again slower at 65
# points; 2^18 holds half the normals of 2^19.
MAX_BATCH_ROWS = 16_384
BATCH_VALUES = 2**18


def __getattr__(name: str):
    # perfbench/tracer.py patches gaussmin.gauss_sim.ndtri; it is imported on
    # that first lookup, so an untraced run loads no scipy module
    if name == "ndtri":
        from scipy.special import ndtri
        return ndtri
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan: (seed, stream, path index) fixes every value."""

    seed: int
    n_paths: int
    stream: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True, eq=False)
class Factorization:
    """The dense route: a Gram matrix sigma with the lower-triangular L,
    L L^T = sigma + jitter * I, that ``factorize`` found for it. Its paths
    are xi L^T, and it solves on sigma + jitter * I. Build it with
    ``factorize``, the PSD and finiteness check of this route."""

    sigma: np.ndarray
    lower: np.ndarray
    jitter: float
    name: ClassVar[str] = "dense"
    prefix: ClassVar[None] = None   # its paths are drawn whole
    _rows: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        for name in ("sigma", "lower"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __array__(self, dtype=None, copy=None):
        # sigma, which perfbench/tracer.py's solve note hashes; this goes once
        # that note hashes a route's own arrays (ROADMAP item 2)
        return np.array(self.sigma, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def paths(self, xi: np.ndarray) -> np.ndarray:
        """X = xi L^T, a new array."""
        return xi @ self.lower.T

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.sigma @ w

    def theta_on(self, idx: np.ndarray) -> np.ndarray:
        """s with (Sigma_PP + jitter I) s = 1 on the sorted points P = idx. All
        points use L. A subset uses packed rows L (row i at i (i+1) / 2) of its
        points in join order and z = L^-1 1, which the all-points call, where
        every solve starts, clears: no solve reads another's rows, and a route
        solves one QP at a time. A joining point appends a row in O(|P|^2); a
        leaving one cuts the rows from its own on. A point of pivot d^2 <= 0
        stays out at s = 0."""
        from scipy.linalg import solve_triangular   # only the dense route needs scipy
        from scipy.linalg.blas import dtpsv

        n, sigma, rows = self.n, self.sigma, self._rows
        if idx.size == n:
            rows.clear()
            z = solve_triangular(self.lower, np.ones(n), lower=True, check_finite=False)
            return solve_triangular(self.lower, z, lower=True, trans="T", check_finite=False)
        if not rows:
            rows += [np.empty(n * (n + 1) // 2), np.empty(n), np.empty(n, int), 0]
        packed, z, order, size = rows
        kept = np.isin(order[:size], idx, assume_unique=True)
        size = int(np.argmin(np.append(kept, False)))  # first one out
        for j in np.setdiff1d(idx, order[:size], assume_unique=True):
            start = size * (size + 1) // 2
            row = dtpsv(size, packed, sigma[j, order[:size]], trans=1) if size else z[:0]
            d2 = sigma[j, j] + self.jitter - row @ row
            if d2 > 0:
                packed[start:start + size + 1] = np.append(row, np.sqrt(d2))
                z[size] = (1.0 - row @ z[:size]) / packed[start + size]
                order[size] = j
                size += 1
        rows[3] = size
        s = np.zeros(n)
        s[order[:size]] = dtpsv(size, packed, z[:size])
        return s[idx]


@dataclass(frozen=True, eq=False)
class Prefix:
    """A staged path's coarse points and its bridge to the rest (module doc),
    on n >= PREFIX_INTERVALS + 1 points: ``points`` are the PREFIX_INTERVALS + 1
    indices width i + min(i, wide) for n - 1 = PREFIX_INTERVALS width + wide,
    so the first ``wide`` intervals hold one point more (``widths``); ``step``
    is sqrt(r_p - r_p') from each prefix point p's predecessor p' (r_(-1) = 0);
    ``bridge`` is lambda_j for each point j > 0, on its interval a < j <= b."""

    points: np.ndarray
    widths: np.ndarray
    step: np.ndarray
    bridge: np.ndarray

    @classmethod
    def of(cls, r: np.ndarray) -> Prefix:
        width, wide = divmod(r.size - 1, PREFIX_INTERVALS)
        i = np.arange(PREFIX_INTERVALS + 1)
        points = width * i + np.minimum(i, wide)
        widths = np.diff(points)
        step = np.sqrt(np.diff(r[points], prepend=0.0))
        a, b = (np.repeat(ends, widths) for ends in (points[:-1], points[1:]))
        bridge = (r[1:] - r[a]) / (r[b] - r[a])
        for arr in (points, widths, step, bridge):
            arr.setflags(write=False)
        return cls(points, widths, step, bridge)

    def fill(self, c: np.ndarray, w: np.ndarray) -> None:
        """Turn ``c``, the cumsums C of a table's rows of increments at points
        1 to n - 1, into W there, in place, given W at the prefix (``w``, one
        row each): W_j = (C_j + W_a - C_a) + lambda_j (W_b - W_a - (C_b - C_a)),
        and W_b exactly at each prefix point b."""
        ends = self.points[1:] - 1                  # the columns of b
        c_end = c[:, ends]
        lift = w[:, :-1].copy()                     # W_a - C_a
        lift[:, 1:] -= c_end[:, :-1]
        gap = w[:, 1:] - (c_end + lift)             # W_b - W_a - (C_b - C_a)
        # an interval's values repeated over its columns: a broadcast over
        # (rows, intervals, width) runs inner loops of one interval, and was
        # 1.1-1.4x slower at 129 to 1025 points
        c += np.repeat(lift, self.widths, axis=1)
        gap = np.repeat(gap, self.widths, axis=1)
        gap *= self.bridge
        c += gap
        c[:, ends] = w[:, 1:]


@dataclass(frozen=True, eq=False)
class MarkovForm:
    """Sigma_ij = q_i q_j r_min(i,j) on n points, with no matrix. Sigma = D C D
    with D = diag(q) and C_ij = min(r_i, r_j), the covariance of Brownian
    motion at times r, whose inverse is tridiagonal; so Sigma w, Sigma_PP^-1 1
    on any point subset P and a path each cost O(n).

    Only ``of``, the PSD and finiteness check of this route, builds one
    (``Kernel.markov_form`` makes it for a kernel's form on given points). It
    keeps the steps sqrt(dr) of its paths' cumsum and, below
    MARKOV_MIN_POINTS, their exact lower factor, or from there the ``Prefix``
    its staged paths start from."""

    r: np.ndarray
    q: np.ndarray
    step: np.ndarray = field(repr=False)
    lower: np.ndarray | None = field(repr=False)
    prefix: Prefix | None = field(repr=False)
    name: ClassVar[str] = "markov"
    jitter: ClassVar[None] = None

    @classmethod
    def of(cls, r, q) -> MarkovForm | None:
        """The form, when (r, q) are arrays of one length n >= 1 with every
        dr = r_j - r_(j-1) (r_(-1) = 0) finite and > 0, so that min(r_i, r_j)
        is Brownian motion's covariance at increasing times, every 1/q finite
        (the precision has D^-1 = diag(1/q)), and every variance q_j^2 r_j
        finite (it bounds the covariances); else None."""
        r, q = np.array(r, dtype=float), np.array(q, dtype=float)
        if r.ndim != 1 or r.shape != q.shape or r.size < 1:
            return None
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # refused here
            dr = np.diff(r, prepend=0.0)
            valid = (np.all(np.isfinite(dr)) and np.all(dr > 0)
                     and np.all(np.isfinite(1.0 / q)) and np.all(np.isfinite(q * q * r)))
        if not valid:
            return None
        step = np.sqrt(dr)
        staged = r.size >= MARKOV_MIN_POINTS
        lower = None if staged else np.tril(np.outer(q, step))
        for arr in (r, q, step, lower):
            if arr is not None:
                arr.setflags(write=False)
        return cls(r, q, step, lower, Prefix.of(r) if staged else None)

    def __array__(self, dtype=None, copy=None):
        # (r, q), the bytes that perfbench/tracer.py's solve note hashes; this
        # goes once that note hashes a route's own arrays (ROADMAP item 2)
        return np.array((self.r, self.q), dtype=dtype)

    @property
    def n(self) -> int:
        return self.r.size

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """Sigma w = q (C u) with u = q w, where
        (C u)_i = sum_(j <= i) r_j u_j + r_i sum_(j > i) u_j."""
        r, q = self.r, self.q
        u = q * w
        cu = np.cumsum(r * u)
        cu[:-1] += r[:-1] * np.cumsum(u[:0:-1])[::-1]
        return q * cu

    def theta_on(self, idx: np.ndarray) -> np.ndarray:
        """Sigma_PP^-1 1 = D^-1 C^-1 v on the sorted points P = idx, v = 1/q_P,
        since (r_P, q_P) is again a form: (C^-1 v)_i = g_i - g_(i+1),
        g_i = (v_i - v_(i-1)) / (r_i - r_(i-1)) (v_(-1) = r_(-1) = 0, g_n = 0)."""
        v = 1.0 / self.q[idx]
        g = np.diff(v, prepend=0.0) / np.diff(self.r[idx], prepend=0.0)
        g[:-1] -= g[1:]
        return v * g

    def paths(self, xi: np.ndarray) -> np.ndarray:
        """X = xi L^T for the exact lower factor L_ij = q_i sqrt(dr_j), j <= i,
        a new array, below MARKOV_MIN_POINTS points (from there ``sample``
        builds the paths in stages)."""
        return xi @ self.lower.T

    def complete(self, xi: np.ndarray, w: np.ndarray) -> np.ndarray:
        """X at points 1 to n - 1 of the rows whose W at the prefix is ``w``,
        from their stage-1 normals ``xi``, written over xi."""
        xi *= self.step[1:]
        np.cumsum(xi, axis=1, out=xi)
        self.prefix.fill(xi, w)
        xi *= self.q[1:]
        return xi


@dataclass(frozen=True)
class PathBatch:
    """Sampled paths (rows) on a grid, with the metadata that regenerates them.
    The values are not scanned: ``factorize`` checks finiteness (module doc).
    ``index`` is each row's path index, by default start_index onward; a
    ``staged`` batch was built in stages, and may leave paths out."""

    grid: Grid
    values: np.ndarray        # shape (n_paths, n_points)
    seed: int
    stream: int
    start_index: int          # global index of the first path in this batch's range
    index: np.ndarray | None = field(default=None, repr=False)
    staged: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.points.size:
            raise GridMismatchError(
                f"paths have {vals.shape} values for a {self.grid.points.size}-point grid")
        index = (np.arange(self.start_index, self.start_index + len(vals))
                 if self.index is None else np.asarray(self.index))
        for name, arr in (("values", vals), ("index", index)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def screen_gram(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """``sigma`` made exactly symmetric, and its scale s = max(max |sigma_ij|, 1),
    once it is square, finite and symmetric to 1e-10 s; else
    NotPositiveSemidefiniteError. A tuple is refused: it would be read as a
    matrix, an (r, q) pair as a 2 x n one."""
    if isinstance(sigma, tuple):
        raise TypeError("a tuple is not a Gram matrix: build a Markov form (r, q) with "
                        "MarkovForm.of, which checks it")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
        raise NotPositiveSemidefiniteError(f"need a square matrix, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise NotPositiveSemidefiniteError("matrix has a NaN or inf entry")
    scale = max(float(np.abs(sigma).max()), 1.0)
    if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
        raise NotPositiveSemidefiniteError("matrix is not symmetric")
    return 0.5 * (sigma + sigma.T), scale


def factorize(sigma: np.ndarray) -> Factorization:
    """The dense route of sigma (made exactly symmetric): its Cholesky factor of
    sigma + lambda I for the smallest workable jitter.

    This is the PSD check of a Gram matrix, and the one finiteness check of
    the paths sampled from it: tries lambda = 0, then DEFAULT_JITTER_START * s
    up by factors of 10, s = max(max |sigma_ij|, 1), and raises
    NotPositiveSemidefiniteError when even DEFAULT_JITTER_MAX * s fails, or
    when sigma or its factor has a NaN or inf entry. The ladder scales with
    sigma so that a rank-deficient sigma of large entries still factors.
    """
    sigma, scale = screen_gram(sigma)
    n = sigma.shape[0]
    lam = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(sigma + lam * np.eye(n) if lam else sigma)
        except np.linalg.LinAlgError:
            lam = DEFAULT_JITTER_START * scale if lam == 0.0 else lam * 10.0
            if lam > DEFAULT_JITTER_MAX * scale * (1 + 1e-12):
                raise NotPositiveSemidefiniteError(
                    f"Cholesky failed up to jitter {DEFAULT_JITTER_MAX * scale:g}: matrix is "
                    "not positive semidefinite") from None
            continue
        if not np.all(np.isfinite(lower)):
            raise NotPositiveSemidefiniteError("Cholesky factor has a NaN or inf entry")
        return Factorization(sigma=sigma, lower=lower, jitter=lam)


def standard_normals(seed: int, stream: int, start: int, count: int,
                     n_points: int, stage: int | None = None) -> np.ndarray:
    """Rows [start, start + count) of the (seed, stream) standard-normal table,
    or of its stage ``stage`` table of staged paths (module doc).

    Row j is row j mod BLOCK_ROWS of block j // BLOCK_ROWS. The blocks that
    hold the rows are drawn, each from its first row to the last it holds
    (or its own last), into one C-contiguous array, and the result is its
    slice of ``count`` rows, also C-contiguous. A block's generator is seeded
    by the six 32-bit halves of (seed, stream, block), or the eight of (seed,
    stream, block, stage): being of fixed width, no two tuples share them.
    """
    first = start // BLOCK_ROWS
    base = first * BLOCK_ROWS
    table = np.empty((start + count - base, n_points))
    for lo in range(0, len(table), BLOCK_ROWS):
        key = (seed, stream, first + lo // BLOCK_ROWS) + (() if stage is None else (stage,))
        words = np.array(key, dtype="<u8").view("<u4")
        Generator(SFC64(SeedSequence(words))).standard_normal(out=table[lo:lo + BLOCK_ROWS])
    return table[start - base:]


def batch_rows(n_points: int) -> int:
    """Paths per batch of a pass on ``n_points`` points: MAX_BATCH_ROWS, capped
    at BATCH_VALUES normals per batch rounded down to whole blocks, and never
    less than one block, so that no batch edge falls inside a block."""
    rows = BATCH_VALUES // n_points
    return min(MAX_BATCH_ROWS, max(BLOCK_ROWS, rows - rows % BLOCK_ROWS))


def sample(factor: Factorization | MarkovForm, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None, support: np.ndarray | None = None,
           survivors_only: bool = False) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to n_paths).

    ``factor`` maps the paths: a route, a ``Factorization`` or a
    ``MarkovForm``, as a ``Problem.route`` is. It maps the whole blocks that
    hold the paths, so a path's values do not depend on how the batch cuts
    its block.

    A route with a ``prefix`` builds its paths in stages (module doc): a row
    is alive when X > 0 at every prefix point in ``support`` (every row, with
    no support). With ``survivors_only`` the batch holds the alive paths only,
    in path order, and its ``index`` names them.
    """
    if factor.n != grid.points.size:
        raise GridMismatchError(
            f"factor is {factor.n}x{factor.n} but the grid has {grid.points.size} points")
    if count is None:
        count = config.n_paths
    if factor.prefix is not None:
        index, values = _staged_paths(factor, config, start, count, support, survivors_only)
        return PathBatch(grid=grid, values=values, seed=config.seed, stream=config.stream,
                         start_index=start, index=index, staged=True)
    offset = start % BLOCK_ROWS
    rows = -(-(offset + count) // BLOCK_ROWS) * BLOCK_ROWS
    xi = standard_normals(config.seed, config.stream, start - offset, rows, factor.n)
    values = factor.paths(xi)[offset:offset + count]
    return PathBatch(grid=grid, values=values, seed=config.seed,
                     stream=config.stream, start_index=start)


def _staged_paths(form: MarkovForm, config: SamplerConfig, start: int, count: int,
                  support: np.ndarray | None, survivors_only: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(path index, X) of ``sample``'s rows on a staged form, in path order.

    Stage 0 is drawn for the whole blocks that hold the paths. Stage 1 is
    drawn per block, up to the last table row the batch keeps, and completes
    the rows it keeps: alive rows first, so that an alive row takes the same
    table row whether or not the others are completed."""
    seed, stream, prefix = config.seed, config.stream, form.prefix
    base = start - start % BLOCK_ROWS
    rows = -(-(start + count - base) // BLOCK_ROWS) * BLOCK_ROWS
    w = standard_normals(seed, stream, base, rows, prefix.points.size, stage=0)
    w *= prefix.step
    np.cumsum(w, axis=1, out=w)
    x0 = w * form.q[prefix.points]
    tested = np.zeros(form.n, dtype=bool)
    if support is not None:
        tested[support] = True
    alive = np.all(x0[:, tested[prefix.points]] > 0, axis=1)
    keep = np.zeros(rows, dtype=bool)
    keep[start - base:start - base + count] = True
    if survivors_only:
        keep &= alive
    index = np.flatnonzero(keep)
    values = np.empty((index.size, form.n))
    for lo in range(0, rows, BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        order = lo + np.argsort(~alive[block], kind="stable")  # row of each table row
        taken = np.flatnonzero(keep[order])
        if not taken.size:
            continue
        xi = standard_normals(seed, stream, base + lo, int(taken[-1]) + 1, form.n - 1, stage=1)
        if taken.size < len(xi):
            xi = xi[taken]
        kept = order[taken]
        dest = np.searchsorted(index, kept)
        values[dest, 0] = x0[kept, 0]
        values[dest, 1:] = form.complete(xi, w[kept])
    return base + index, values


@dataclass(frozen=True)
class PathFunctionals:
    """Per-path summaries: Y = sum_i w_i X_i, the grid minimum and the leftmost
    argmin. The argmin is computed on first access, as the first point equal
    to the minimum: its one temporary is a bool array 1/8 the batch's size,
    where ``values.argmin`` would copy the read-only batch whole. The tail and
    Z* estimators never read it."""

    values: np.ndarray = field(repr=False)
    y: np.ndarray
    min_value: np.ndarray

    def __post_init__(self):
        for name in ("y", "min_value"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def argmin_index(self) -> np.ndarray:
        arr = (self.values == self.min_value[:, None]).argmax(axis=1)
        arr.setflags(write=False)
        return arr


def functionals(batch: PathBatch, weights: GridMeasure) -> PathFunctionals:
    """Y, min and (on access) leftmost argmin for every path in the batch."""
    if not np.array_equal(weights.grid.points, batch.grid.points):
        raise GridMismatchError("weights are not on the batch's grid")
    x = batch.values
    # a matrix product rounds a row's Y by its place in the batch, and a
    # staged batch's rows depend on which survive: each row's own dot product,
    # as a stack of (1, n) @ (n, 1) products that matmul computes one by one
    # (no temporary; np.vecdot would do the same but needs numpy 2)
    y = ((x[:, None, :] @ weights.weights[:, None])[:, 0, 0] if batch.staged
         else x @ weights.weights)
    return PathFunctionals(values=x, y=y, min_value=x.min(axis=1))
