"""Counter-based Gaussian path sampling and per-path functionals."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from gaussmin import (
    DyadicGrid,
    GridMismatchError,
    GridMeasure,
    ModulatedBrownian,
    NotPositiveSemidefiniteError,
    OrnsteinUhlenbeck,
    PointGrid,
    PowerExponential,
    PowerScale,
    Problem,
    SamplerConfig,
    functionals,
    sample,
    tail_is,
)
from gaussmin import gauss_sim
from gaussmin.estimators import (argmin_conditional, argmin_sweep, correction_diagnostic,
                                 mx_sweep, run_sweeps, small_ball_sweep, tail_crude_sweep,
                                 tail_is_sweep)
from gaussmin.gauss_sim import (DEFAULT_BATCH, MARKOV_MIN_POINTS, MarkovPaths, PathBatch,
                                batch_rows, factorize, markov_form_valid, standard_normals)
from conftest import MARKOV_KERNELS, make_config, markov_problem
from oracles import ks_critical, reference_normals


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


@pytest.mark.parametrize("sigma", [[[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf]]])
def test_factorize_rejects_a_non_finite_matrix(sigma):
    # the one finiteness check of the sampled paths: no batch is scanned
    with pytest.raises(NotPositiveSemidefiniteError, match="NaN or inf"):
        factorize(np.array(sigma))


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


@pytest.mark.parametrize("n_points", [8, 9, 10, 11, 1025])  # every n mod 4
def test_normal_table_matches_the_out_of_place_oracle(n_points):
    for start in (0, 13):
        assert np.array_equal(standard_normals(31, 2, start, 50, n_points),
                              reference_normals(31, 2, start, 50, n_points))


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


# ---------------------------------------------------------------------------
# the path map: dense xi L^T below MARKOV_MIN_POINTS, the O(n) cumsum above
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [8, 10])
@pytest.mark.parametrize("name", sorted(MARKOV_KERNELS))
def test_markov_route_matches_the_dense_product(name, k):
    problem = markov_problem(name, k)
    assert isinstance(problem.path_map, MarkovPaths)
    x = sample(problem.path_map, problem.grid, make_config(n_paths=500), start=40).values
    dense = reference_normals(4242, 0, 40, 500, problem.grid.n) @ problem.factor.lower.T
    assert np.abs(x - dense).max() <= 1e-11 * np.abs(dense).max()


@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("name", sorted(MARKOV_KERNELS))
def test_dense_route_below_the_crossover_is_unchanged(name, k):
    problem = markov_problem(name, k)
    assert problem.path_map is problem.factor
    x = sample(problem.path_map, problem.grid, make_config(n_paths=500), start=40).values
    dense = reference_normals(4242, 0, 40, 500, problem.grid.n) @ problem.factor.lower.T
    assert np.array_equal(x, dense)


def test_path_map_dispatch_rule():
    # a Problem solves on its kernel's (r, q) when the form passes
    # markov_form_valid, at any size; it samples by the cumsum from
    # MARKOV_MIN_POINTS points, and by its factor below that or without a form
    problem = markov_problem("ou", 8)
    assert problem.route == "markov"
    assert isinstance(problem.path_map, MarkovPaths)
    r, q = problem.kernel.markov_form(problem.grid)
    assert markov_form_valid(r, q)
    assert not markov_form_valid(np.where(r > 2.0, np.inf, r), q)
    flat = r.copy()
    flat[5] = flat[4]
    assert not markov_form_valid(flat, q)
    assert not markov_form_valid(r, np.where(q < 0.5, 0.0, q))
    assert not markov_form_valid(r, np.where(q < 0.5, np.nan, q))
    small = markov_problem("ou", 6)
    assert small.grid.n < MARKOV_MIN_POINTS
    assert small.route == "markov"
    assert small.path_map is small.factor
    no_form = Problem(PowerExponential(0.5), DyadicGrid(0.0, 1.0, 8))
    overflow = Problem(OrnsteinUhlenbeck(), DyadicGrid(0.0, 400.0, 8))  # r = e^800 = inf
    for p in (no_form, overflow):
        assert p.route == "dense"
        assert p.path_map is p.factor


def test_a_jittered_factor_leaves_the_path_map_to_the_markov_form():
    # two points 4.5e-16 apart have a valid Markov form, but their Gram
    # matrix factors only with jitter, and paths of covariance sigma + lambda I
    # would not have the law the form's certificate is for: the form samples
    problem = Problem(ModulatedBrownian(PowerScale(0.5), 1.0, 4.0),
                      PointGrid([2.0, 2.0 + 4.5e-16, 3.0]))
    assert problem.route == "markov"
    assert problem.factor.jitter > 0
    assert isinstance(problem.path_map, MarkovPaths)
    for e in tail_is(problem, [0.5, 1.0, 1.5], make_config(n_paths=100_000)):
        crude = e.meta["crude"]
        assert abs(e.value - crude.value) <= 4 * np.hypot(e.stderr, crude.stderr), e.meta["u"]


def test_markov_route_is_bit_identical_across_batches_and_workers():
    problem = markov_problem("example2", 8)  # partial support: the shifted min and argmin run
    assert isinstance(problem.path_map, MarkovPaths)
    cfg = make_config(n_paths=6000, batch_size=777)
    full = sample(problem.path_map, problem.grid, cfg).values
    stacked = np.vstack([
        sample(problem.path_map, problem.grid, cfg, start=s,
               count=min(cfg.batch_size, cfg.n_paths - s)).values
        for s in range(0, cfg.n_paths, cfg.batch_size)])
    assert np.array_equal(stacked, full)
    results = []
    for workers in (1, 2):
        cfg = make_config(n_paths=6000, batch_size=777, workers=workers)
        tails = [(e.value, e.stderr, e.log_value) for e in tail_is(problem, [0.0, 1.0, 2.0], cfg)]
        hists = [(h.weights.tolist(), ess) for h, ess in argmin_conditional(problem, [1.0], cfg)]
        results.append((tails, hists))
    assert results[1] == results[0]


def test_one_fine_batch_allocates_about_one_keystream_buffer():
    # the normals, the paths and the cumsum share the keystream buffer, and
    # functionals does not compute the unread argmin
    problem = markov_problem("ou", 10)
    paths, measure = problem.path_map, problem.solution.measure
    buffer = DEFAULT_BATCH * 1028 * 8   # 1025 points use 257 Philox blocks of 4
    tracemalloc.start()
    try:
        batch = sample(paths, problem.grid, make_config(n_paths=DEFAULT_BATCH))
        functionals(batch, measure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffer, f"peak {peak / buffer:.2f} x the buffer"


def test_argmin_of_a_strided_batch_matches_argmin_without_a_copy():
    problem = markov_problem("example1", 7)  # 129 points: the Markov route's strided batch
    assert isinstance(problem.path_map, MarkovPaths)
    batch = sample(problem.path_map, problem.grid, make_config(n_paths=DEFAULT_BATCH))
    assert not batch.values.flags.c_contiguous
    fn = functionals(batch, problem.solution.measure)
    buffer = DEFAULT_BATCH * 132 * 8    # 129 points use 33 Philox blocks of 4
    tracemalloc.start()
    try:
        index = fn.argmin_index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(index, batch.values.argmin(axis=1))
    assert peak <= 0.25 * buffer, f"peak {peak / buffer:.2f} x the buffer"


# ---------------------------------------------------------------------------
# batches: a pass draws and reduces at most BATCH_VALUES keystream values at once
# ---------------------------------------------------------------------------


def test_narrow_batches_stay_whole():
    # up to 128 points a default batch keeps its 16384 rows; from 129 points
    # (132 keystream values per path) the cap sets the rows
    for n in (33, 65, 128):
        assert batch_rows(n, DEFAULT_BATCH) == DEFAULT_BATCH
    assert batch_rows(129, DEFAULT_BATCH) == 15887


def test_batch_rows_cap_the_keystream_of_a_batch():
    # 1025 points (1028 keystream values per path): 2^21 // 1028 rows
    assert batch_rows(1025, DEFAULT_BATCH) == 2040
    assert batch_rows(1025, 10**6) == 2040
    assert batch_rows(1025, 777) == 777   # a smaller batch size wins
    assert batch_rows(2**21 + 1, DEFAULT_BATCH) == 1   # at least one path


@pytest.mark.parametrize("route", ["markov", "dense"])
def test_a_fine_pass_holds_one_capped_batch(route):
    # 1025 points: a default batch's keystream would be 135 MB; the pass draws
    # 2040 paths at a time, and the dense map adds their X to the keystream
    if route == "markov":
        problem, batches = markov_problem("ou", 10), 1
    else:
        problem, batches = Problem(PowerExponential(0.5), DyadicGrid(0.0, 1.0, 10)), 2
    paths, _ = problem.path_map, problem.solution   # built before tracing
    assert isinstance(paths, MarkovPaths) == (route == "markov")
    buffer = DEFAULT_BATCH * 1028 * 8
    tracemalloc.start()
    try:
        tail_is(problem, [0.0, 1.0], make_config(n_paths=DEFAULT_BATCH))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capped = 8 * gauss_sim.BATCH_VALUES
    assert peak <= (batches + 0.25) * capped, f"peak {peak / capped:.2f} x one capped keystream"
    assert peak < 0.25 * buffer, f"peak {peak / buffer:.2f} x the batch's buffer"


def _sweep_outputs(problem: Problem, cfg: SamplerConfig) -> list:
    """Every sweep estimator's output on ``problem``, exactly (floats by repr):
    the six stream-0 sweeps in one pass, and the diagnostic's own pass."""
    us = [0.0, 0.5, 1.0, 2.0]
    tail, crude, ball_range, ball_zstar, argmin, mx = run_sweeps(problem, cfg, [
        tail_is_sweep(problem, us), tail_crude_sweep(problem, us),
        small_ball_sweep(problem, [2.0, 1.0, 0.5], "range"),
        small_ball_sweep(problem, [2.0, 1.0, 0.5], "zstar"),
        argmin_sweep(problem, [1.0, 2.0]), mx_sweep(problem, [2.0, 0.5])])
    out = [repr(e) for e in tail + crude + ball_range + ball_zstar]   # tail with meta["crude"]
    out += [repr(r) if isinstance(r, Exception) else repr((r[0].weights.tolist(), r[1]))
            for r in argmin]
    out += [repr(r) if isinstance(r, Exception) else repr(r.weights.tolist()) for r in mx]
    out.append(repr(correction_diagnostic(problem, [0.5, 1.0, 2.0], cfg)))
    return out


@pytest.mark.parametrize("name, k", [
    ("example2", 8),   # partial support: shifted min and argmin
    ("example1", 10),
])
def test_batch_sizes_above_the_cap_change_no_output(name, k):
    # every batch size from the capped rows up draws batches of the same
    # shapes, which the BLAS rounds alike, and no worker count moves a total;
    # 20001 paths leave a short last batch
    problem = markov_problem(name, k)
    capped = batch_rows(problem.grid.n, DEFAULT_BATCH)
    assert capped < DEFAULT_BATCH
    outputs = {(batch_size, workers): _sweep_outputs(problem, make_config(
                   n_paths=20_001, batch_size=batch_size, workers=workers))
               for batch_size, workers in [(capped, 1), (DEFAULT_BATCH, 2), (10**6, 1)]}
    assert [run for run, out in outputs.items() if out != outputs[capped, 1]] == []
