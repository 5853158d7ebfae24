"""Exact sampling of the grid Gaussian vector with reproducible streams.

Sampling is counter-based: a Philox generator keyed by (seed, stream) is
advanced directly to the counter block of a given path index, so path j is
the same array no matter the batch size, the order of generation, or how many
workers produced it. Standard normals come from the inverse CDF applied to
open-interval uniforms, computed in place in the keystream buffer.

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
a Markov form with an infinite variance. The normals satisfy |xi| <= 8.3,
since the uniforms lie in [2^-53, 1 - 2^-53], so every path value is finite,
|X_i| <= 8.3 sqrt(n (sigma_ii + jitter)).

A pass of the estimators draws ``batch_rows`` paths per batch: at most the
batch size, and at most BATCH_VALUES keystream values, so a pass over a fine
grid holds one 16 MiB keystream (and, on the dense map, its X) whatever batch
size it is given. Philox addressing gives every path the same normals in any
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .exceptions import GridMismatchError, NotPositiveSemidefiniteError
from .grids import Grid
from .measure import GridMeasure

BLOCK = 4  # uint64 outputs per Philox counter increment
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
# Keystream values (8 B each) per batch at most, 16 MiB: a default batch of up
# to 128 points (16384 x 128 values) stays whole; a 1025-point batch holds 2040
# paths.
BATCH_VALUES = 2**21


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


def _blocks_per_path(n_points: int) -> int:
    return -(-n_points // BLOCK)


def standard_normals(seed: int, stream: int, start: int, count: int,
                     n_points: int) -> np.ndarray:
    """The (count, n_points) block of the deterministic standard-normal table.

    Path j always occupies Philox counter blocks [j*bpp, (j+1)*bpp) of the
    (seed, stream) keystream, bpp = ceil(n_points/4); uniforms keep 52 bits
    and live strictly inside (0, 1) so the inverse CDF is always finite.
    Every step runs in the keystream buffer, so the result is a strided view
    of one (count, 4*bpp) float64 array, the only allocation of its size.
    """
    bpp = _blocks_per_path(n_points)
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    if start:
        bg.advance(start * bpp)
    raw = bg.random_raw(count * bpp * BLOCK)
    raw >>= np.uint64(12)
    uniforms = raw.view(np.float64)
    uniforms[...] = raw  # 1-D and element-aligned, so numpy converts without a copy
    uniforms += 0.5
    uniforms *= 2.0**-52
    xi = uniforms.reshape(count, bpp * BLOCK)[:, :n_points]
    return ndtri(xi, out=xi)


def batch_rows(n_points: int, batch_size: int) -> int:
    """Paths per batch of a pass on ``n_points`` points: ``batch_size``, capped
    so that a batch's keystream holds at most BATCH_VALUES values (at least
    one path)."""
    return min(batch_size, max(1, BATCH_VALUES // (BLOCK * _blocks_per_path(n_points))))


def sample(factor: Factorization | MarkovPaths, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to n_paths).

    ``factor`` is the path map: a ``Factorization`` or a ``Problem.path_map``.
    """
    if factor.n != grid.points.size:
        raise GridMismatchError(
            f"factor is {factor.n}x{factor.n} but the grid has {grid.points.size} points")
    if count is None:
        count = config.n_paths
    xi = standard_normals(config.seed, config.stream, start, count, factor.n)
    values = factor.paths(xi)
    return PathBatch(grid=grid, values=values, seed=config.seed,
                     stream=config.stream, start_index=start)


@dataclass(frozen=True)
class PathFunctionals:
    """Per-path summaries: Y = sum_i w_i X_i, the grid minimum and the leftmost
    argmin. The argmin is computed on first access, as the first point equal
    to the minimum: its one temporary is a bool array 1/8 the batch's size,
    where ``values.argmin`` would copy a strided batch whole. The tail and Z*
    estimators never read it."""

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
