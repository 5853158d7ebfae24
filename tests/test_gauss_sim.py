"""Counter-based Gaussian path sampling and per-path functionals."""

import numpy as np
import pytest
from scipy.special import ndtr

from gaussmin import (
    DyadicGrid,
    GridMismatchError,
    GridMeasure,
    NotPositiveSemidefiniteError,
    SamplerConfig,
    functionals,
    sample,
)
from gaussmin.gauss_sim import PathBatch, factorize, standard_normals
from conftest import make_config
from oracles import ks_critical


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factorize_identity_needs_no_jitter():
    fac = factorize(np.eye(4))
    assert fac.jitter == 0.0
    assert np.array_equal(fac.lower, np.eye(4))


def test_factorize_smooth_kernel_needs_no_jitter(ou):
    fac = factorize(ou.gram(DyadicGrid(0.0, 1.0, 8)))
    assert fac.jitter == 0.0


def test_factorize_singular_matrix_with_small_jitter():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    fac = factorize(sigma)
    assert 0.0 < fac.jitter <= 1e-6
    recon = fac.lower @ fac.lower.T
    assert np.abs(recon - sigma).max() <= 10 * fac.jitter


def test_factorize_rejects_indefinite_and_malformed_input():
    with pytest.raises(NotPositiveSemidefiniteError):
        factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveSemidefiniteError):
        factorize(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(NotPositiveSemidefiniteError):
        factorize(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the deterministic normal table
# ---------------------------------------------------------------------------


def test_normal_table_is_addressable_by_row():
    for n_points in (1, 3, 4, 5, 17):
        full = standard_normals(99, 0, 0, 10, n_points)
        block = standard_normals(99, 0, 5, 3, n_points)
        assert np.array_equal(block, full[5:8])


def test_normal_table_values_are_finite_and_keyed():
    a = standard_normals(7, 0, 0, 64, 9)
    assert np.all(np.isfinite(a))
    assert not np.array_equal(a, standard_normals(8, 0, 0, 64, 9))
    assert not np.array_equal(a, standard_normals(7, 1, 0, 64, 9))


def test_normal_table_marginals_pass_ks(ou):
    # two-sided Kolmogorov-Smirnov against the standard normal CDF at
    # significance 1e-3
    n = 100_000
    crit = ks_critical(n, 1e-3)
    xi = standard_normals(4242, 0, 0, n, 3)
    ranks = np.arange(1, n + 1) / n
    for j in range(3):
        s = np.sort(xi[:, j])
        cdf = ndtr(s)
        d = max(np.abs(cdf - ranks).max(), np.abs(cdf - ranks + 1.0 / n).max())
        assert d < crit, f"coordinate {j}: D={d:.4f} >= {crit:.4f}"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_batch_size_does_not_change_paths(ou):
    grid = DyadicGrid(0.0, 1.0, 4)
    fac = factorize(ou.gram(grid))
    cfg = make_config(n_paths=5000, batch_size=777)
    full = sample(fac, grid, cfg)
    starts = range(0, cfg.n_paths, cfg.batch_size)
    stacked = np.vstack([
        sample(fac, grid, cfg, start=s, count=min(cfg.batch_size, cfg.n_paths - s)).values
        for s in starts])
    assert np.array_equal(stacked, full.values)


def test_sample_slices_address_the_same_paths(ou):
    grid = DyadicGrid(0.0, 1.0, 3)
    fac = factorize(ou.gram(grid))
    cfg = make_config(n_paths=4000)
    full = sample(fac, grid, cfg)
    part = sample(fac, grid, cfg, start=1000, count=500)
    assert part.start_index == 1000
    assert np.array_equal(part.values, full.values[1000:1500])


def test_sample_is_deterministic_and_seeded(ou):
    grid = DyadicGrid(0.0, 1.0, 2)
    fac = factorize(ou.gram(grid))
    a = sample(fac, grid, make_config(n_paths=100))
    b = sample(fac, grid, make_config(n_paths=100))
    assert np.array_equal(a.values, b.values)
    c = sample(fac, grid, make_config(seed=4243, n_paths=100))
    assert not np.array_equal(a.values, c.values)


def test_sample_moments_match_the_kernel(ou):
    grid = DyadicGrid(0.0, 1.0, 4)
    sigma = ou.gram(grid)
    fac = factorize(sigma)
    n = 100_000
    x = sample(fac, grid, make_config(n_paths=n)).values
    assert np.abs(x.mean(axis=0)).max() <= 4.0 / np.sqrt(n)
    emp = (x.T @ x) / n
    assert np.abs(emp - sigma).max() <= 0.02


def test_sample_grid_size_must_match_factor(ou):
    fac = factorize(ou.gram(DyadicGrid(0.0, 1.0, 2)))
    with pytest.raises(GridMismatchError):
        sample(fac, DyadicGrid(0.0, 1.0, 3), make_config(n_paths=10))


# ---------------------------------------------------------------------------
# per-path functionals
# ---------------------------------------------------------------------------


def _toy_batch():
    grid = DyadicGrid(0.0, 1.0, 1)
    values = np.array([[3.0, 1.0, 2.0],
                       [1.0, 1.0, 5.0],
                       [2.0, 2.0, 2.0]])
    return PathBatch(grid=grid, values=values, seed=0, stream=0, start_index=0)


def test_functionals_on_hand_built_paths():
    batch = _toy_batch()
    w = GridMeasure(batch.grid, np.array([0.25, 0.5, 0.25]))
    f = functionals(batch, w)
    assert np.allclose(f.y, [1.75, 2.0, 2.0])
    assert np.array_equal(f.min_value, [1.0, 1.0, 2.0])
    assert np.array_equal(f.argmin_index, [1, 0, 0])  # leftmost tie wins


def test_functionals_require_matching_grid():
    batch = _toy_batch()
    w = GridMeasure(DyadicGrid(0.0, 2.0, 1), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(GridMismatchError):
        functionals(batch, w)


def test_minimum_never_exceeds_the_weighted_average(ou_problem_k5):
    # Y is a convex combination of the path values, so min X <= Y pathwise
    batch = sample(ou_problem_k5.factor, ou_problem_k5.grid, make_config(n_paths=100_000))
    f = functionals(batch, ou_problem_k5.solution.measure)
    assert float((f.min_value - f.y).max()) <= 1e-12


def test_residuals_are_uncorrelated_with_y_at_the_optimum(ou_problem_k5):
    # at the optimum Cov(X_i, Y) = sigma*^2 = Var Y on the support, so the
    # residual X_i - Y has zero covariance with Y
    n = 200_000
    batch = sample(ou_problem_k5.factor, ou_problem_k5.grid, make_config(n_paths=n))
    f = functionals(batch, ou_problem_k5.solution.measure)
    resid = batch.values - f.y[:, None]
    y = f.y - f.y.mean()
    prods = resid * y[:, None]
    cov = prods.mean(axis=0)
    stderr = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(cov) <= 4.0 * stderr)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1, n_paths=10)
    with pytest.raises(ValueError):
        SamplerConfig(seed=2**64, n_paths=10)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_paths=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_paths=10, batch_size=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_paths=10, workers=0)


def test_path_batch_validation():
    grid = DyadicGrid(0.0, 1.0, 1)
    with pytest.raises(GridMismatchError):
        PathBatch(grid=grid, values=np.zeros((4, 2)), seed=0, stream=0, start_index=0)
    with pytest.raises(ValueError):
        PathBatch(grid=grid, values=np.full((1, 3), np.nan), seed=0, stream=0,
                  start_index=0)
