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
(r, q), with no Gram matrix. Its exact lower factor is
L_ij = q_i sqrt(r_j - r_(j-1)) for j <= i, so its paths are xi L^T below
MARKOV_MIN_POINTS points, where that product is faster, and from there
q * cumsum(xi * sqrt(dr)), O(n) per path and written over xi. The two agree to
rounding (about 1e-12 relative at 1025 points). Nothing on this route is
jittered, so its paths have the law its certificate is for.

Finiteness is checked once per ``Problem``, not per batch: ``factorize``
refuses a sigma or factor with a NaN or inf entry, and ``MarkovForm.of`` a
form with an infinite variance. The normals satisfy |xi| < 13.8:
the ziggurat's layers lie within x_R = 3.654, and its tail draws
x_R - log1p(-U) / x_R with a 53-bit uniform U < 1, so at most
x_R + 53 log(2) / x_R. So every path value is finite,
|X_i| < 13.8 sqrt(n (sigma_ii + jitter)).

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
# Smallest grid whose Markov form maps its paths by the O(n) cumsum rather
# than by the product with its lower factor. Measured per sampled value at
# the pass's batch rows (2-core Xeon, one BLAS thread, two runs): the product
# costs 3.6-4.8 ns at 65 points, 4.9-6.8 at 97, 6.0-6.2 at 129, 7.8-8.0 at 193
# and 10.1-10.2 at 257; the cumsum costs 4.1-5.8 ns at every size. So the two
# tie near 97 points, between the dyadic grids of 65 and 129 points, and the
# cumsum needs no second batch-sized array.
MARKOV_MIN_POINTS = 129
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
class MarkovForm:
    """Sigma_ij = q_i q_j r_min(i,j) on n points, with no matrix. Sigma = D C D
    with D = diag(q) and C_ij = min(r_i, r_j), the covariance of Brownian
    motion at times r, whose inverse is tridiagonal; so Sigma w, Sigma_PP^-1 1
    on any point subset P and a path each cost O(n).

    Only ``of``, the PSD and finiteness check of this route, builds one
    (``Kernel.markov_form`` makes it for a kernel's form on given points). It
    keeps the steps sqrt(dr) of its paths' cumsum and, below
    MARKOV_MIN_POINTS, their exact lower factor."""

    r: np.ndarray
    q: np.ndarray
    step: np.ndarray = field(repr=False)
    lower: np.ndarray | None = field(repr=False)
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
        lower = np.tril(np.outer(q, step)) if r.size < MARKOV_MIN_POINTS else None
        for arr in (r, q, step, lower):
            if arr is not None:
                arr.setflags(write=False)
        return cls(r, q, step, lower)

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
        """X = xi L^T for the exact lower factor L_ij = q_i sqrt(dr_j), j <= i:
        a new array below MARKOV_MIN_POINTS points, else the cumsum over xi."""
        if self.lower is not None:
            return xi @ self.lower.T
        xi *= self.step
        np.cumsum(xi, axis=1, out=xi)
        xi *= self.q
        return xi


@dataclass(frozen=True)
class PathBatch:
    """Sampled paths (rows) on a grid, with the metadata that regenerates them.
    The values are not scanned: ``factorize`` checks finiteness (module doc)."""

    grid: Grid
    values: np.ndarray        # shape (n_paths, n_points)
    seed: int
    stream: int
    start_index: int          # global index of the first path in this batch

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.points.size:
            raise GridMismatchError(
                f"paths have {vals.shape} values for a {self.grid.points.size}-point grid")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


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
                     n_points: int) -> np.ndarray:
    """Rows [start, start + count) of the (seed, stream) standard-normal table.

    Path j is row j mod BLOCK_ROWS of block j // BLOCK_ROWS. The blocks that
    hold the rows are drawn whole into one C-contiguous array, and the result
    is its slice of ``count`` rows, also C-contiguous. A block's generator is
    seeded by the six 32-bit halves of (seed, stream, block): being of fixed
    width, no two triples share them.
    """
    first = start // BLOCK_ROWS
    blocks = (start + count - 1) // BLOCK_ROWS + 1 - first
    table = np.empty((blocks * BLOCK_ROWS, n_points))
    for i in range(blocks):
        words = np.array([seed, stream, first + i], dtype="<u8").view("<u4")
        Generator(SFC64(SeedSequence(words))).standard_normal(
            out=table[i * BLOCK_ROWS:(i + 1) * BLOCK_ROWS])
    offset = start - first * BLOCK_ROWS
    return table[offset:offset + count]


def batch_rows(n_points: int) -> int:
    """Paths per batch of a pass on ``n_points`` points: MAX_BATCH_ROWS, capped
    at BATCH_VALUES normals per batch rounded down to whole blocks, and never
    less than one block, so that no batch edge falls inside a block."""
    rows = BATCH_VALUES // n_points
    return min(MAX_BATCH_ROWS, max(BLOCK_ROWS, rows - rows % BLOCK_ROWS))


def sample(factor: Factorization | MarkovForm, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to n_paths).

    ``factor`` maps the paths: a route, a ``Factorization`` or a
    ``MarkovForm``, as a ``Problem.route`` is. It maps the whole blocks that
    hold the paths, so a path's values do not depend on how the batch cuts
    its block.
    """
    if factor.n != grid.points.size:
        raise GridMismatchError(
            f"factor is {factor.n}x{factor.n} but the grid has {grid.points.size} points")
    if count is None:
        count = config.n_paths
    offset = start % BLOCK_ROWS
    rows = -(-(offset + count) // BLOCK_ROWS) * BLOCK_ROWS
    xi = standard_normals(config.seed, config.stream, start - offset, rows, factor.n)
    values = factor.paths(xi)[offset:offset + count]
    return PathBatch(grid=grid, values=values, seed=config.seed,
                     stream=config.stream, start_index=start)


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
    return PathFunctionals(values=x, y=x @ weights.weights, min_value=x.min(axis=1))
