"""Exact sampling of the grid Gaussian vector with reproducible streams.

Sampling is block-addressed: path j is row j mod BLOCK_ROWS of block
j // BLOCK_ROWS, and a block's (BLOCK_ROWS, n) table is drawn by numpy's
ziggurat (``Generator.standard_normal``) from an SFC64 generator seeded by the
fixed-width words of (seed, stream, block). So path j is the same array no
matter the batch size, the order of generation, or how many workers produced
it; a batch that starts or ends inside a block draws that block whole and
keeps the rows it owns.

A path map turns the normals xi into paths X. The dense map is X = xi L^T for
the (jittered) Cholesky factor L of the Gram matrix from ``factorize``, the
one factor a ``Problem`` keeps (and shares with the simplex solver when its
kernel has no Markov form); it costs O(n^2) per path. A Gauss-Markov kernel,
R(s, t) = q(s) q(t) r(min(s, t)), has L_ij = q_i sqrt(r_j - r_(j-1)) for
j <= i, so the same X is q * cumsum(xi * sqrt(dr)), O(n) per path and
written over xi (``MarkovPaths``).
A ``Problem`` whose kernel has a Markov form that ``markov_form_valid``
accepts (every dr finite and > 0, every 1/q and variance q^2 r finite) solves
on that form at any size, and samples by the cumsum from MARKOV_MIN_POINTS
points, where it builds no Gram matrix and no factor, so nothing is jittered.
Below that the matrix product is faster and maps its paths, unless the factor
needed jitter: its paths would then not have the law the solution certifies,
and the form samples by the exact cumsum instead. The two maps agree to
rounding (about 1e-12 relative at 1025 points).

Finiteness is checked once per ``Problem``, not per batch: ``factorize``
refuses a sigma or factor with a NaN or inf entry, and ``markov_form_valid``
a Markov form with an infinite variance. The normals satisfy |xi| < 13.8:
the ziggurat's layers lie within x_R = 3.654, and its tail draws
x_R - log1p(-U) / x_R with a 53-bit uniform U < 1, so at most
x_R + 53 log(2) / x_R. So every path value is finite,
|X_i| < 13.8 sqrt(n (sigma_ii + jitter)).

A pass of the estimators draws ``batch_rows`` paths per batch: at most the
batch size, and at most BATCH_VALUES normals, rounded down to whole blocks,
so a pass over a fine grid holds one table of at most 16 MiB (and, on the
dense map, its X) whatever batch size it is given, and a default pass draws
every block once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .exceptions import GridMismatchError, NotPositiveSemidefiniteError
from .grids import Grid
from .measure import GridMeasure

# Paths per block of the normal table. Measured per value (one thread): 13.3
# ns at 33 points and 12.4 ns at 1025 with 256 rows, against 17 and 12 ns with
# 64; a 4097-point batch capped at BATCH_VALUES (511 rows) holds one block.
BLOCK_ROWS = 256
DEFAULT_JITTER_START = 1e-12
DEFAULT_JITTER_MAX = 1e-6
DEFAULT_BATCH = 16_384
# Smallest grid whose paths take the O(n) Markov cumsum (a Problem solves on a
# valid Markov form at any size). Measured per sampled value
# (batches of 16384, one BLAS thread): the dense product costs 3-4 ns at 65
# points, 6-10 ns at 129 and 30 ns at 1025; the cumsum costs 6.5-8 ns at any
# size. At 129 points the two tie on time, and the cumsum needs no second
# batch-sized array.
MARKOV_MIN_POINTS = 129
# Normals (8 B each) per batch at most, 16 MiB, rounded down to whole blocks:
# a default batch of up to 128 points (16384 x 128 values) stays whole; a
# 1025-point batch holds 1792 paths, a 4097-point batch 256.
BATCH_VALUES = 2**21


def __getattr__(name: str):
    # perfbench/tracer.py patches gaussmin.gauss_sim.ndtri; it is imported on
    # that first lookup, so an untraced run loads no scipy module
    if name == "ndtri":
        from scipy.special import ndtri
        return ndtri
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan: (seed, stream, path index) fixes every value.
    A pass draws batches of at most ``batch_size`` paths (``batch_rows``)."""

    seed: int
    n_paths: int
    batch_size: int = DEFAULT_BATCH
    stream: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class Factorization:
    """Lower-triangular L with L L^T = sigma + jitter * I."""

    lower: np.ndarray
    jitter: float

    def __post_init__(self):
        arr = np.asarray(self.lower, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "lower", arr)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def paths(self, xi: np.ndarray) -> np.ndarray:
        """X = xi L^T, a new array."""
        return xi @ self.lower.T


@dataclass(frozen=True)
class MarkovPaths:
    """X_i = q_i sum_(j <= i) sqrt(r_j - r_(j-1)) xi_j with r_(-1) = 0: the
    dense map's L applied as a cumulative sum."""

    step: np.ndarray    # sqrt(r_j - r_(j-1))
    scale: np.ndarray   # q

    @classmethod
    def of(cls, r: np.ndarray, q: np.ndarray) -> MarkovPaths:
        """The map of a Markov form that ``markov_form_valid`` accepts."""
        return cls(step=np.sqrt(np.diff(r, prepend=0.0)), scale=q)

    def __post_init__(self):
        for name in ("step", "scale"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.step.size

    def paths(self, xi: np.ndarray) -> np.ndarray:
        """X, written over xi."""
        xi *= self.step
        np.cumsum(xi, axis=1, out=xi)
        xi *= self.scale
        return xi


def markov_form_valid(r: np.ndarray, q: np.ndarray) -> bool:
    """Whether (r, q) is the Markov form of a finite positive definite
    covariance: every dr = r_j - r_(j-1) (r_(-1) = 0) finite and > 0, so that
    min(r_i, r_j) is Brownian motion's covariance at increasing times, every
    1/q finite (the precision has D^-1 = diag(1/q)), and every variance
    q_j^2 r_j finite (it bounds the covariances). This is the whole PSD and
    finiteness check of the Markov route."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # refused below
        dr = np.diff(r, prepend=0.0)
        return bool(np.all(np.isfinite(dr)) and np.all(dr > 0)
                    and np.all(np.isfinite(1.0 / q)) and np.all(np.isfinite(q * q * r)))


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
    NotPositiveSemidefiniteError."""
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
    """Cholesky factor of sigma + lambda I for the smallest workable jitter.

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
        return Factorization(lower=lower, jitter=lam)


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


def batch_rows(n_points: int, batch_size: int) -> int:
    """Paths per batch of a pass on ``n_points`` points: ``batch_size``, capped
    at BATCH_VALUES normals per batch rounded down to whole blocks (at least
    one path), so that no capped batch edge falls inside a block."""
    rows = BATCH_VALUES // n_points
    if rows >= BLOCK_ROWS:
        rows -= rows % BLOCK_ROWS
    return min(batch_size, max(1, rows))


def sample(factor: Factorization | MarkovPaths, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to n_paths).

    ``factor`` is the path map: a ``Factorization`` or a ``Problem.path_map``.
    It maps the whole blocks that hold the paths, so a path's values do not
    depend on how the batch cuts its block.
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
