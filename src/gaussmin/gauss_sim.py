"""Exact sampling of the grid Gaussian vector with reproducible streams.

Sampling is counter-based: a Philox generator keyed by (seed, stream) is
advanced directly to the counter block of a given path index, so path j is
the same array no matter the batch size, the order of generation, or how many
workers produced it. Standard normals come from the inverse CDF applied to
open-interval uniforms; paths are X = xi L^T for the (jittered) Cholesky
factor L of the Gram matrix from ``factorize``, the one factor a ``Problem``
keeps and shares with the simplex solver.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan: (seed, stream, path index) fixes every value."""

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


@dataclass(frozen=True)
class PathBatch:
    """Sampled paths (rows) on a grid, with the metadata that regenerates them."""

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
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled paths contain non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def factorize(sigma: np.ndarray) -> Factorization:
    """Cholesky factor of sigma + lambda I for the smallest workable jitter.

    This is the PSD check of a Gram matrix: tries lambda = 0, then
    DEFAULT_JITTER_START * s up by factors of 10, s = max(max |sigma_ij|, 1),
    and raises NotPositiveSemidefiniteError when even DEFAULT_JITTER_MAX * s
    fails. The ladder scales with sigma so that a rank-deficient sigma of large
    entries still factors.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
        raise NotPositiveSemidefiniteError(f"need a square matrix, got shape {sigma.shape}")
    scale = max(float(np.abs(sigma).max()), 1.0)
    if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
        raise NotPositiveSemidefiniteError("matrix is not symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    n = sigma.shape[0]
    lam = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(sigma + lam * np.eye(n) if lam else sigma)
            return Factorization(lower=lower, jitter=lam)
        except np.linalg.LinAlgError:
            lam = DEFAULT_JITTER_START * scale if lam == 0.0 else lam * 10.0
            if lam > DEFAULT_JITTER_MAX * scale * (1 + 1e-12):
                raise NotPositiveSemidefiniteError(
                    f"Cholesky failed up to jitter {DEFAULT_JITTER_MAX * scale:g}: matrix is "
                    "not positive semidefinite") from None


def _blocks_per_path(n_points: int) -> int:
    return -(-n_points // BLOCK)


def standard_normals(seed: int, stream: int, start: int, count: int,
                     n_points: int) -> np.ndarray:
    """The (count, n_points) block of the deterministic standard-normal table.

    Path j always occupies Philox counter blocks [j*bpp, (j+1)*bpp) of the
    (seed, stream) keystream, bpp = ceil(n_points/4); uniforms keep 52 bits
    and live strictly inside (0, 1) so the inverse CDF is always finite.
    """
    bpp = _blocks_per_path(n_points)
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    if start:
        bg.advance(start * bpp)
    raw = bg.random_raw(count * bpp * BLOCK).reshape(count, bpp * BLOCK)[:, :n_points]
    uniforms = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    return ndtri(uniforms)


def sample(factor: Factorization, grid: Grid, config: SamplerConfig,
           start: int = 0, count: int | None = None) -> PathBatch:
    """Draw paths [start, start + count) as one batch (count defaults to n_paths)."""
    if factor.n != grid.points.size:
        raise GridMismatchError(
            f"factor is {factor.n}x{factor.n} but the grid has {grid.points.size} points")
    if count is None:
        count = config.n_paths
    xi = standard_normals(config.seed, config.stream, start, count, factor.n)
    values = xi @ factor.lower.T
    return PathBatch(grid=grid, values=values, seed=config.seed,
                     stream=config.stream, start_index=start)


@dataclass(frozen=True)
class PathFunctionals:
    """Per-path summaries: Y = sum_i w_i X_i, the grid minimum, leftmost argmin."""

    y: np.ndarray
    min_value: np.ndarray
    argmin_index: np.ndarray

    def __post_init__(self):
        for name in ("y", "min_value", "argmin_index"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def functionals(batch: PathBatch, weights: GridMeasure) -> PathFunctionals:
    """Y, min and leftmost argmin for every path in the batch."""
    if not np.array_equal(weights.grid.points, batch.grid.points):
        raise GridMismatchError("weights are not on the batch's grid")
    x = batch.values
    return PathFunctionals(y=x @ weights.weights,
                           min_value=x.min(axis=1),
                           argmin_index=x.argmin(axis=1))
