"""Exact sampling of the grid Gaussian vector with reproducible streams.

Sampling is block-addressed. On n points, path j is row j mod B of block
j // B, with B = ``block_rows(n)`` paths set by the grid alone, and a block's
(B, n) table is drawn by numpy's ziggurat (``Generator.standard_normal``)
from an SFC64 generator seeded by the fixed-width words of (seed, stream,
block). So path j is the same array no matter how a batch cuts the paths,
the order of generation, or how many workers produced it; a batch that
starts or ends inside a block draws that block whole and keeps the rows it
owns.

A route is a (kernel, grid)'s covariance Sigma, checked once where it is
built: it maps the normals xi to paths X, and gives the solver Sigma w
(``matvec``) and Sigma_PP^-1 1 on point sets P (``theta_on``). The dense
route, ``Factorization``, holds the Gram matrix and its (jittered) Cholesky
factor L from ``factorize``: X = xi L^T (``paths``), O(n^2) per path. A
Gauss-Markov kernel, R(s, t) = q(s) q(t) r(min(s, t)), has a ``MarkovForm``
(r, q), with no Gram matrix: X = q W(r) for a Brownian motion W. Nothing on
this route is jittered, so its paths have the law its certificate is for.

A Markov form builds its paths coarse to fine (``Prefix``), at every grid
size, in two stages with their own generators, seeded by the words of (seed,
stream, block, stage):

- stage 0 draws a (B, m + 1) table per block: W at the prefix, the
  m + 1 points from the first to the last that bound its
  m = min(PREFIX_INTERVALS, max(1, (n - 1) // 8)) intervals, by a cumsum of
  its steps;
- stage 1 completes a row: a free cumsum of n - 1 normals times sqrt(dr),
  pinned to W at the prefix by the Brownian bridge, W_j = W_a + (C_j - C_a)
  + lambda_j (W_b - W_a - (C_b - C_a)) on each interval a < j <= b, with
  lambda_j = (r_j - r_a) / (r_b - r_a). This is exact: given W_a and W_b,
  the bridge term is independent of C_b - C_a. A 1-point grid has no stage 1.

A row is alive when X > 0 at every prefix point in a given support (the
optimal measure's), and the stage-1 table holds the block's alive rows first,
each in row order, then the others. So an alive row is the same path whether
a batch completes only the alive rows or every row: the estimators read
nothing of a row with X <= 0 at a support point (``estimators.Sweep``).
Each block completes the rows a batch takes of it in one call. A row's Y is
its own dot product (``functionals``), since a matrix product rounds a row's
Y by its place in the batch, and which rows a batch holds depends on which
survive.

Finiteness is checked once per ``Problem``, not per batch: ``factorize``
refuses a sigma or factor with a NaN or inf entry, and ``MarkovForm.of`` a
form with an infinite variance. The normals satisfy |xi| < 13.8:
the ziggurat's layers lie within x_R = 3.654, and its tail draws
x_R - log1p(-U) / x_R with a 53-bit uniform U < 1, so at most
x_R + 53 log(2) / x_R. So every path value is finite: a dense path has
|X_i| < 13.8 sqrt(n (sigma_ii + jitter)), by Cauchy-Schwarz on row i of L.
A staged path has |X_j| < 34 sqrt(n sigma_jj) up to rounding, at every n >= 1.
Its P = m + 1 <= 33 prefix points have |W_p| < 13.8 sqrt(P r_p). On j's
interval a < j <= b of w points, W_j = (1 - lambda_j) W_a + lambda_j W_b
+ (C_j - C_a) - lambda_j (C_b - C_a): the first two terms add up to < 13.8
sqrt(P r_j), as sqrt is concave and r_j = (1 - lambda_j) r_a + lambda_j r_b,
and the last two are each < 13.8 sqrt(w r_j), as lambda_j^2 (r_b - r_a) =
lambda_j (r_j - r_a). With w <= ceil((n - 1) / m), (sqrt(P) + 2 sqrt(w)) /
sqrt(n) is largest at n = 3, sqrt(6), where one interval holds 2 points (below
17 points one interval holds up to 15), and 13.8 sqrt(6) < 34. A 1-point
path is q_0 W_0, with |W_0| < 13.8 sqrt(r_0).

A pass of the estimators draws batches of ``batch_rows(n)`` paths, one block
each: at most 2 MiB of normals, or 256 paths where those hold more (from
1025 points), and, where a matrix product maps them, their X. So a pass
draws each block once, with one generator per table, at every grid size.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .exceptions import GridMismatchError, NotPositiveSemidefiniteError
from .grids import Grid

if TYPE_CHECKING:
    from .measure import GridMeasure

# Paths per block of the normal table (``block_rows``), set by the grid alone:
# MAX_BLOCK_ROWS, capped at BLOCK_VALUES normals (2 MiB: one core's L2 cache)
# rounded down to a multiple of MIN_BLOCK_ROWS, and never less: 16384 up to 16
# points, 7936 at 33, 3840 at 65, 1792 at 129, 768 at 257, 256 from 513. A
# pass's batch is one block, so it seeds one generator per batch and table:
# OU tail_is at 33 points (500k paths, 5 u, 2-core Xeon, one BLAS thread,
# medians of 7) took 0.20-0.23 s with 256-row blocks and 0.11-0.13 s so on two
# workers, 0.20-0.23 and 0.17-0.18 s on one. Measured with 256-row blocks:
# 13.3 and 12.4 ns per value at 33 and 1025 points, against 17 and 12 with 64
# rows; tail_is passes in batches of 2^17, 2^18, 2^19, 2^20 and 2^21 values:
# OU k=5, 500k paths, 5 u: 0.31, 0.33, 0.32, 0.39, 0.38 s; k=6: 0.63, 0.59,
# 0.59, 0.60, 0.69 s; example1 k=10, 50k paths, u=3: 0.87, 0.86, 0.85, 0.89,
# 0.92 s. 2^17 to 2^19 tie within the spread of a second run, where 2^17 was
# again slower at 65 points; 2^18 holds half the normals of 2^19.
MIN_BLOCK_ROWS = 256
MAX_BLOCK_ROWS = 16_384
BLOCK_VALUES = 2**18
DEFAULT_JITTER_START = 1e-12
DEFAULT_JITTER_MAX = 1e-6
# Most intervals of a staged path's prefix (``Prefix``), which holds
# min(PREFIX_INTERVALS, max(1, (n - 1) // 8)) intervals, of at least 8 points
# from 9: one up to 16 points, 4 at 33, 8 at 65, 16 at 129 and 32 from 257.
# Measured on tail_is passes (2-core Xeon, one BLAS thread, 7 alternating runs,
# median) with 8, 16 and 32 intervals: OU at 65 points, 200k paths, u = 0, 1,
# 2: 0.14-0.15, 0.17-0.18, 0.25 s; at 129 points: 0.21-0.23, 0.23-0.25,
# 0.37-0.39 s; at 257, 100k paths: 0.17, 0.18, 0.21 s; example1 at 1025 points,
# 50k paths, u=3: 0.32, 0.31, 0.30 s. So 32 is the fastest at 1025 points and
# the slowest below 257; the floor of 8 points per interval keeps 32 at 257
# points, whose paths keep their values.
PREFIX_INTERVALS = 32
# Paths per batch of a pass at most: a lower cap cuts blocks, moving no path
MAX_BATCH_ROWS = MAX_BLOCK_ROWS

# each thread's stage-1 scratch (``_scratch``): a worker never reads another's,
# and no value in it outlives the ``sample`` call that wrote it
_buffers = threading.local()


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

    def __post_init__(self):   # refused, never truncated; stream + 1 must fit too
        for name, low, high in (("seed", 0, 2**64 - 1), ("n_paths", 1, math.inf),
                                ("stream", 0, 2**64 - 2), ("workers", 1, math.inf)):
            value = getattr(self, name)
            if not hasattr(value, "__index__") or not low <= value <= high:
                raise ValueError(f"{name} must be an integer in [{low}, {high}]")
            object.__setattr__(self, name, operator.index(value))


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
    on n points, in m = min(PREFIX_INTERVALS, max(1, (n - 1) // 8))
    intervals: ``points`` are the m + 1 indices width i + min(i, wide)
    for n - 1 = m width + wide, so the first ``wide`` intervals hold one point
    more (``widths``); ``step`` is sqrt(r_p - r_p') from each prefix point p's
    predecessor p' (r_(-1) = 0); ``bridge`` is lambda_j for each point j > 0,
    on its interval a < j <= b; ``runs`` are the (columns, intervals, width)
    of the intervals of each width, as columns 1 to n - 1 of a table."""

    points: np.ndarray
    widths: np.ndarray
    step: np.ndarray
    bridge: np.ndarray
    runs: tuple[tuple[slice, slice, int], ...]

    @classmethod
    def of(cls, r: np.ndarray) -> Prefix:
        intervals = min(PREFIX_INTERVALS, max(1, (r.size - 1) // 8))
        width, wide = divmod(r.size - 1, intervals)
        i = np.arange(intervals + 1)
        points = width * i + np.minimum(i, wide)
        widths = np.diff(points)
        step = np.sqrt(np.diff(r[points], prepend=0.0))
        a, b = (np.repeat(ends, widths) for ends in (points[:-1], points[1:]))
        bridge = (r[1:] - r[a]) / (r[b] - r[a])
        runs = tuple((slice(points[lo], points[hi]), slice(lo, hi), size)
                     for lo, hi, size in ((0, wide, width + 1), (wide, intervals, width))
                     if hi > lo)
        for arr in (points, widths, step, bridge):
            arr.setflags(write=False)
        return cls(points, widths, step, bridge, runs)

    def fill(self, c: np.ndarray, w: np.ndarray, spare: np.ndarray) -> None:
        """Turn ``c``, the cumsums C of a table's rows of increments at points
        1 to n - 1, into W there, in place, given W at the prefix (``w``, one
        row each): W_j = (C_j + W_a - C_a) + lambda_j (W_b - W_a - (C_b - C_a)),
        and W_b exactly at each prefix point b. ``spare``, of c's shape, is
        written over."""
        ends = self.points[1:] - 1                  # the columns of b
        c_end = c[:, ends]
        lift = w[:, :-1].copy()                     # W_a - C_a
        lift[:, 1:] -= c_end[:, :-1]
        gap = w[:, 1:] - (c_end + lift)             # W_b - W_a - (C_b - C_a)
        # an interval's values copied over its columns into spare, then added
        # over the whole table: an add broadcast over (rows, intervals, width)
        # runs inner loops of one interval, and was 1.1-1.4x slower at 129 to
        # 1025 points; np.repeat allocates, and np.take with out= took
        # 1.4 ns per value against 0.5-0.8 for np.repeat
        self._spread(lift, spare)
        c += spare
        self._spread(gap, spare)
        spare *= self.bridge
        c += spare
        c[:, ends] = w[:, 1:]

    def _spread(self, per_interval: np.ndarray, out: np.ndarray) -> None:
        """Write each row's value of an interval over the interval's columns
        (each run's reshape splits the contiguous last axis: a view)."""
        for cols, intervals, width in self.runs:
            np.copyto(out[:, cols].reshape(len(out), -1, width), per_interval[:, intervals, None])


@dataclass(frozen=True, eq=False)
class MarkovForm:
    """Sigma_ij = q_i q_j r_min(i,j) on n points, with no matrix. Sigma = D C D
    with D = diag(q) and C_ij = min(r_i, r_j), the covariance of Brownian
    motion at times r, whose inverse is tridiagonal; so Sigma w, Sigma_PP^-1 1
    on any point subset P and a path each cost O(n).

    Only ``of``, the PSD and finiteness check of this route, builds one
    (``Kernel.markov_form`` makes it for a kernel's form on given points). It
    keeps the steps sqrt(dr) of its paths' cumsum and the ``Prefix`` its
    staged paths start from."""

    r: np.ndarray
    q: np.ndarray
    step: np.ndarray = field(repr=False)
    prefix: Prefix = field(repr=False)
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
        for arr in (r, q, step):
            arr.setflags(write=False)
        return cls(r, q, step, Prefix.of(r))

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

    def complete(self, xi: np.ndarray, w: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """X at points 1 to n - 1 of the rows whose W at the prefix is ``w``,
        from their stage-1 normals ``xi``, written over xi (and ``spare``, of
        its shape)."""
        xi *= self.step[1:]
        np.cumsum(xi, axis=1, out=xi)
        self.prefix.fill(xi, w, spare)
        xi *= self.q[1:]
        return xi


@dataclass(frozen=True)
class PathBatch:
    """Sampled paths (rows) on a grid, with the metadata that regenerates them.
    The values are not scanned: ``factorize`` checks finiteness (module doc).
    ``index`` is each row's path index, by default start_index onward; a
    staged batch may leave paths out."""

    grid: Grid
    values: np.ndarray        # shape (n_paths, n_points)
    seed: int
    stream: int
    start_index: int          # global index of the first path in this batch's range
    index: np.ndarray | None = field(default=None, repr=False)

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
                     n_points: int, stage: int | None = None,
                     out: np.ndarray | None = None, size: int | None = None) -> np.ndarray:
    """Rows [start, start + count) of the (seed, stream) standard-normal table,
    or of its stage ``stage`` table of staged paths (module doc), in blocks of
    ``size`` rows (``block_rows(n_points)`` by default; a stage table takes
    its grid's).

    Row j is row j mod size of block j // size. The blocks that hold the rows
    are drawn, each from its first row to the last it holds (or its own
    last), into one C-contiguous array (``out``, when given, of that shape),
    and the result is its slice of ``count`` rows, also C-contiguous. A
    block's generator is seeded by the six 32-bit halves of (seed, stream,
    block), or the eight of (seed, stream, block, stage): being of fixed
    width, no two tuples share them.
    """
    size = block_rows(n_points) if size is None else size
    first = start // size
    base = first * size
    table = np.empty((start + count - base, n_points)) if out is None else out
    for lo in range(0, len(table), size):
        key = (seed, stream, first + lo // size) + (() if stage is None else (stage,))
        words = np.array(key, dtype="<u8").view("<u4")
        Generator(SFC64(SeedSequence(words))).standard_normal(out=table[lo:lo + size])
    return table[start - base:]


def block_rows(n_points: int) -> int:
    """Paths per block of the normal table on ``n_points`` points:
    MAX_BLOCK_ROWS, capped at BLOCK_VALUES normals rounded down to a multiple
    of MIN_BLOCK_ROWS, and never less than MIN_BLOCK_ROWS."""
    rows = BLOCK_VALUES // n_points
    return min(MAX_BLOCK_ROWS, max(MIN_BLOCK_ROWS, rows - rows % MIN_BLOCK_ROWS))


def batch_rows(n_points: int) -> int:
    """Paths per batch of a pass on ``n_points`` points: one block, or
    MAX_BATCH_ROWS where that is less."""
    return min(MAX_BATCH_ROWS, block_rows(n_points))


def sample(factor: Factorization | MarkovForm, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None, support: np.ndarray | None = None,
           survivors_only: bool = False) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to
    n_paths; a negative start or count is refused).

    ``factor`` maps the paths: a route, a ``Factorization`` or a
    ``MarkovForm``, as a ``Problem.route`` is. It maps the whole blocks that
    hold the paths, so a path's values do not depend on how the batch cuts
    its block.

    A route with a ``prefix`` builds its paths in stages (module doc): a row
    is alive when X > 0 at every prefix point in ``support`` (every row, with
    no support). With ``survivors_only`` the batch holds the alive paths only,
    in path order, and its ``index`` names them. Since alive rows come first,
    a path's stage-1 row depends on ``support``: a caller that wants the
    estimators' paths passes ``problem.solution.support``.
    """
    if factor.n != grid.points.size:
        raise GridMismatchError(
            f"factor is {factor.n}x{factor.n} but the grid has {grid.points.size} points")
    if count is None:
        count = config.n_paths
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be >= 0, got {start} and {count}")
    if factor.prefix is not None:
        index, values = _staged_paths(factor, config, start, count, support, survivors_only)
        return PathBatch(grid=grid, values=values, seed=config.seed, stream=config.stream,
                         start_index=start, index=index)
    size = block_rows(factor.n)
    offset = start % size
    rows = -(-(offset + count) // size) * size
    xi = standard_normals(config.seed, config.stream, start - offset, rows, factor.n)
    values = factor.paths(xi)[offset:offset + count]
    return PathBatch(grid=grid, values=values, seed=config.seed,
                     stream=config.stream, start_index=start)


def _staged_paths(form: MarkovForm, config: SamplerConfig, start: int, count: int,
                  support: np.ndarray | None, survivors_only: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(path index, X) of ``sample``'s rows on a staged form, in path order.

    Stage 0 is drawn for the whole blocks that hold the paths. A block's
    stage-1 table gives its alive rows its first rows, and is drawn up to the
    last row the batch keeps, so that an alive row takes the same table row
    whether or not the others are completed. Each block's rows are completed
    in one call, in the stage-1 table and a spare of the thread's buffer
    (``_scratch``): a row's values do not depend on the rows it is completed
    with."""
    seed, stream, prefix, n = config.seed, config.stream, form.prefix, form.n
    size = block_rows(n)
    base = start - start % size
    rows = -(-(start + count - base) // size) * size
    w = standard_normals(seed, stream, base, rows, prefix.points.size, stage=0, size=size)
    w *= prefix.step
    np.cumsum(w, axis=1, out=w)
    x0 = w * form.q[prefix.points]
    tested = np.zeros(n, dtype=bool)
    if support is not None:
        tested[support] = True
    alive = np.all(x0[:, tested[prefix.points]] > 0, axis=1)
    keep = np.zeros(rows, dtype=bool)
    keep[start - base:start - base + count] = True
    if survivors_only:
        keep &= alive
    index = np.flatnonzero(keep)
    values = np.empty((index.size, n))
    values[:, 0] = x0[index, 0]
    if n == 1:   # a 1-point path is stage 0's
        return base + index, values
    # the batch row of each table row: a stable sort puts each block's alive rows first
    order = np.argsort(~alive.reshape(-1, size), axis=1, kind="stable")
    order += np.arange(0, rows, size)[:, None]
    order = order.ravel()
    taken = np.flatnonzero(keep[order])               # the table rows completed
    kept = order[taken]
    dest = np.searchsorted(index, kept)
    ends = np.searchsorted(taken, np.arange(0, rows + 1, size)).tolist()
    for first, lo, hi in zip(range(0, rows, size), ends, ends[1:]):
        if hi == lo:
            continue
        drawn = int(taken[hi - 1]) - first + 1
        table, spare = _scratch(2 * drawn * (n - 1)).reshape(2, drawn, n - 1)
        xi = standard_normals(seed, stream, base + first, drawn, n - 1, stage=1,
                              out=table, size=size)
        if drawn > hi - lo:
            xi = xi[taken[lo:hi] - first]
        values[dest[lo:hi], 1:] = form.complete(xi, w[kept[lo:hi]], spare[:hi - lo])
    return base + index, values


def _scratch(size: int) -> np.ndarray:
    """``size`` values of this thread's stage-1 buffer, grown as needed and
    kept. Allocated afresh for each batch, the table and the bridge's spare
    faulted their pages in again and again: 10k, 17k and 34k minor page
    faults per 100k-path OU tail_is pass at 65, 129 and 257 points, against
    fewer than 20 with this buffer."""
    buffer = getattr(_buffers, "stage1", None)
    if buffer is None or buffer.size < size:
        buffer = _buffers.stage1 = np.empty(size)
    return buffer[:size]


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
    # a matrix product rounds a row's Y by its place in the batch: each row's
    # own dot product, as a stack of (1, n) @ (n, 1) products that matmul
    # computes one by one (no temporary; np.vecdot would do the same but
    # needs numpy 2)
    y = (x[:, None, :] @ weights.weights[:, None])[:, 0, 0]
    return PathFunctionals(values=x, y=y, min_value=x.min(axis=1))
