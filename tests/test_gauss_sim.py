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
    ShiftedRootScale,
    Problem,
    SamplerConfig,
    certify,
    functionals,
    sample,
    tail_is,
)
from gaussmin import estimators, gauss_sim
from gaussmin.estimators import (argmin_conditional, argmin_sweep, correction_diagnostic,
                                 mx_sweep, run_sweeps, small_ball_sweep, tail_crude_sweep,
                                 tail_is_sweep)
from gaussmin.gauss_sim import (BLOCK_VALUES, MAX_BLOCK_ROWS, MIN_BLOCK_ROWS, Factorization,
                                MarkovForm, PathBatch, block_rows, factorize, standard_normals)
from conftest import MARKOV_KERNELS, make_config, markov_problem
from oracles import ks_critical, reference_block_rows, reference_normals, reference_staged_paths


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
    for n_points in (1, 3, 4, 5, 17, 33):
        full = standard_normals(99, 0, 0, 10, n_points)
        block = standard_normals(99, 0, 5, 3, n_points)
        assert np.array_equal(block, full[5:8])
        size = block_rows(n_points)
        across = standard_normals(99, 0, 0, 2 * size + 5, n_points)
        assert np.array_equal(standard_normals(99, 0, size - 3, 6, n_points),
                              across[size - 3:size + 3])


def test_normal_table_values_are_finite_and_keyed():
    a = standard_normals(7, 0, 0, 64, 9)
    assert np.all(np.isfinite(a))
    assert not np.array_equal(a, standard_normals(8, 0, 0, 64, 9))
    assert not np.array_equal(a, standard_normals(7, 1, 0, 64, 9))


def test_block_seeds_are_injective():
    # numpy splits each int of a list entropy into as few 32-bit words as it
    # needs and concatenates them, so [2^32, 5, 7] and [0, 1 + 5 * 2^32, 7]
    # both give the words (0, 1, 5, 7); fixed-width words keep them apart
    size = block_rows(4)
    a = standard_normals(2**32, 5, 7 * size, size, 4)
    b = standard_normals(0, 1 + 5 * 2**32, 7 * size, size, 4)
    assert not np.array_equal(a, b)


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


@pytest.mark.parametrize("n_points", [8, 9, 10, 11, 1025])
def test_normal_table_matches_the_out_of_place_oracle(n_points):
    # from B - 1, B + 2 rows span two block edges; the oracle writes out the
    # block rule itself
    size = reference_block_rows(n_points)
    assert size == block_rows(n_points)
    for start, count in ((0, 50), (size - 1, size + 2)):
        assert np.array_equal(standard_normals(31, 2, start, count, n_points),
                              reference_normals(31, 2, start, count, n_points))


def test_normal_table_law_across_block_edges():
    # the rows on either side of 400 block edges: their values pass a
    # two-sided KS test against N(0, 1) at significance 1e-3, and the
    # correlation of the pairs of values at the same point of the last row
    # of one block and the first row of the next is within 4 stderrs of 0
    n_points, edges = 64, range(1, 401)
    size = block_rows(n_points)
    pairs = np.array([standard_normals(5, 3, e * size - 1, 2, n_points) for e in edges])
    values = np.sort(pairs.ravel())
    n = values.size
    ranks = np.arange(1, n + 1) / n
    cdf = ndtr(values)
    d = max(np.abs(cdf - ranks).max(), np.abs(cdf - ranks + 1.0 / n).max())
    assert d < ks_critical(n, 1e-3), f"D={d:.4f}"
    before, after = pairs[:, 0].ravel(), pairs[:, 1].ravel()
    corr = np.corrcoef(before, after)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(before.size), f"corr {corr:.4f}"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_batch_size_does_not_change_paths(ou):
    grid = DyadicGrid(0.0, 1.0, 4)
    fac = factorize(ou.gram(grid))
    cfg, rows = make_config(n_paths=5000), 777
    full = sample(fac, grid, cfg)
    stacked = np.vstack([
        sample(fac, grid, cfg, start=s, count=min(rows, cfg.n_paths - s)).values
        for s in range(0, cfg.n_paths, rows)])
    assert np.array_equal(stacked, full.values)


@pytest.mark.parametrize("k, n_paths", [(5, 2000), (10, 300)])
def test_batch_sizes_give_the_same_paths(ou, k, n_paths):
    # staged Markov paths at 33 and 1025 points: batches of 1, 777 and the
    # pass's rows, each drawing whole blocks where it starts or ends
    # inside one, stack to the same paths
    problem = Problem(ou, DyadicGrid(0.0, 1.0, k))
    cfg = make_config(n_paths=n_paths)
    stacks = []
    for rows in (1, 777, block_rows(problem.grid.n)):
        stacks.append(np.vstack([
            sample(problem.route, problem.grid, cfg, s, min(rows, n_paths - s)).values
            for s in range(0, n_paths, rows)]))
    assert np.array_equal(stacks[0], stacks[2])
    assert np.array_equal(stacks[1], stacks[2])


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


@pytest.mark.parametrize("name", ["dense", "markov"])
def test_sample_refuses_a_negative_range(monkeypatch, name):
    # a negative start overflowed numpy's cast of the block key, and a
    # negative count returned an empty batch; both are refused before any
    # draw, and an empty range stays an empty batch
    kernel = {"dense": PowerExponential(0.5), "markov": OrnsteinUhlenbeck()}[name]
    problem = Problem(kernel, DyadicGrid(0.0, 1.0, 3))
    route, grid, cfg = problem.route, problem.grid, make_config(n_paths=100)
    assert route.name == name
    drawn = []
    draw = gauss_sim.standard_normals
    monkeypatch.setattr(gauss_sim, "standard_normals",
                        lambda *a, **kw: drawn.append(a) or draw(*a, **kw))
    for start, count in ((-1, 10), (-300, 10), (0, -1), (5, -3)):
        with pytest.raises(ValueError, match="start and count"):
            sample(route, grid, cfg, start, count)
    assert drawn == []
    assert sample(route, grid, cfg, 7, 0).values.shape == (0, grid.n)


def test_each_rows_y_is_its_own_on_the_dense_route(pe_half):
    # Y is each row's own dot product, so a row's Y does not depend on the
    # rows that share its batch
    problem = Problem(pe_half, DyadicGrid(0.0, 1.0, 6))
    route, grid, measure = problem.route, problem.grid, problem.solution.measure
    cfg = make_config(n_paths=500)
    y = functionals(sample(route, grid, cfg), measure).y
    for i in range(0, 500, 37):
        assert functionals(sample(route, grid, cfg, i, 1), measure).y[0] == y[i]


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
    batch = sample(ou_problem_k5.route, ou_problem_k5.grid, make_config(n_paths=100_000))
    f = functionals(batch, ou_problem_k5.solution.measure)
    assert float((f.min_value - f.y).max()) <= 1e-12


def test_residuals_are_uncorrelated_with_y_at_the_optimum(ou_problem_k5):
    # at the optimum Cov(X_i, Y) = sigma*^2 = Var Y on the support, so the
    # residual X_i - Y has zero covariance with Y
    n = 200_000
    batch = sample(ou_problem_k5.route, ou_problem_k5.grid, make_config(n_paths=n))
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
    with pytest.raises(TypeError):   # retired: the grid alone sets a pass's batches
        SamplerConfig(seed=1, n_paths=10, batch_size=5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_paths=10, workers=0)


@pytest.mark.parametrize("bad", [
    {"seed": 1.0}, {"n_paths": 10.0}, {"workers": 2.0},
    {"stream": 1.5},                     # was sampled as stream 1
    {"stream": -1}, {"stream": 2**64},   # overflowed in numpy, in the first batch
    {"stream": 2**64 - 1},               # correction_diagnostic draws on stream + 1
], ids=str)
def test_sampler_config_takes_integers_in_range(bad):
    with pytest.raises(ValueError):
        SamplerConfig(**{"seed": 1, "n_paths": 10, **bad})
    top = SamplerConfig(seed=np.uint64(2**64 - 1), n_paths=np.int64(10), stream=2**64 - 2)
    assert (top.seed, top.n_paths, top.stream + 1) == (2**64 - 1, 10, 2**64 - 1)
    assert type(top.seed) is int and type(top.n_paths) is int


def test_path_batch_validation():
    grid = DyadicGrid(0.0, 1.0, 1)
    with pytest.raises(GridMismatchError):
        PathBatch(grid=grid, values=np.zeros((4, 2)), seed=0, stream=0, start_index=0)


# ---------------------------------------------------------------------------
# the Markov path map: staged paths at every grid size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 6, 8, 10, pytest.param(None, id="1-point")])
@pytest.mark.parametrize("name", sorted(MARKOV_KERNELS))
def test_markov_route_matches_the_dense_product(name, k):
    # the stage tables times the dense matrices of the staged construction,
    # with the alive rows (here, of the optimal measure's support) first in
    # the stage-1 table, from 2 to 1025 points, over 500 paths across a
    # block edge; a 1-point grid (the interval's midpoint) takes stage 0 alone
    if k is None:
        kern, a, b = MARKOV_KERNELS[name]
        problem = Problem(kern, PointGrid([(a + b) / 2]))
    else:
        problem = markov_problem(name, k)
    form, support = problem.route, problem.solution.support
    assert isinstance(form, MarkovForm)
    start = reference_block_rows(problem.grid.n) - 250
    x = sample(form, problem.grid, make_config(n_paths=500), start=start, support=support).values
    dense = reference_staged_paths(form.r, form.q, 4242, 0, start, 500, support)
    assert np.abs(x - dense).max() <= 1e-11 * np.abs(dense).max()


def test_a_1_point_markov_grid_estimates_from_stage_0(monkeypatch):
    # one point has no stage-1 columns: its paths are q W from stage 0 alone,
    # and its tail is the normal tail P(X > u) = 1 - Phi(u / sigma)
    problem = Problem(OrnsteinUhlenbeck(), PointGrid([0.5]))
    sigma = np.sqrt(problem.route.q[0] ** 2 * problem.route.r[0])
    stages, draw = [], gauss_sim.standard_normals

    def recorded(*args, stage=None, **kwargs):
        stages.append(stage)
        return draw(*args, stage=stage, **kwargs)

    monkeypatch.setattr(gauss_sim, "standard_normals", recorded)
    us = [0.5, 1.0, 2.0]
    for u, e in zip(us, tail_is(problem, us, make_config(n_paths=20_000))):
        assert abs(e.value - ndtr(-u / sigma)) <= 4 * e.stderr, u
    assert set(stages) == {0}


def test_path_map_dispatch_rule():
    # a Problem whose kernel's (r, q) passes MarkovForm.of samples and solves
    # on that form at any size; without a valid form, on its factor
    for k in (6, 8):
        problem = markov_problem("ou", k)
        assert isinstance(problem.route, MarkovForm)
        assert (problem.route.name, problem.route.jitter) == ("markov", None)
    # every size is staged, from 1 point (stage 0 alone) to 2, 9, 33 and 65
    assert Problem(OrnsteinUhlenbeck(), PointGrid([0.5])).route.prefix is not None
    assert all(markov_problem("ou", k).route.prefix is not None for k in (0, 3, 5, 6))
    form = problem.kernel.markov_form(problem.grid)
    r, q = form.r, form.q
    assert MarkovForm.of(r, q) is not None
    assert MarkovForm.of(np.where(r > 2.0, np.inf, r), q) is None
    flat = r.copy()
    flat[5] = flat[4]
    assert MarkovForm.of(flat, q) is None
    assert MarkovForm.of(r, np.where(q < 0.5, 0.0, q)) is None
    assert MarkovForm.of(r, np.where(q < 0.5, np.nan, q)) is None
    assert MarkovForm.of(r, q[1:]) is None
    assert MarkovForm.of(r[:0], q[:0]) is None
    no_form = Problem(PowerExponential(0.5), DyadicGrid(0.0, 1.0, 8))
    overflow = Problem(OrnsteinUhlenbeck(), DyadicGrid(0.0, 400.0, 8))  # r = e^800 = inf
    for p in (no_form, overflow):
        assert isinstance(p.route, Factorization)
        assert (p.route.name, p.route.jitter) == ("dense", 0.0)


def test_a_markov_problem_checks_its_form_once(monkeypatch):
    # the route is checked where the kernel builds it: the solve, a pass of
    # two batches and a certificate of the route run no second MarkovForm.of
    of, calls = MarkovForm.of, []

    def counted(r, q):
        calls.append(len(r))
        return of(r, q)

    monkeypatch.setattr(MarkovForm, "of", counted)
    problem = markov_problem("example2", 5)
    solution = problem.solution
    tail_is(problem, [1.0], make_config(n_paths=block_rows(problem.grid.n) + 1))
    assert certify(problem.route, solution.measure).passed
    assert calls == [problem.grid.n]


@pytest.mark.parametrize("k", [5, 7])
def test_a_markov_form_keeps_what_its_batches_need(monkeypatch, k):
    # 33 and 129 points are staged; both take their steps sqrt(dr) and their
    # prefix from the form, built once
    problem = markov_problem("example1", k)
    form, grid, cfg = problem.route, problem.grid, make_config(n_paths=600)
    assert form.prefix is not None

    def refuse(*args, **kwargs):
        raise AssertionError("a batch rebuilt the form's steps or prefix")

    for name in ("diff", "sqrt", "outer", "tril"):
        monkeypatch.setattr(np, name, refuse)
    first, second = sample(form, grid, cfg, 0, 300), sample(form, grid, cfg, 300, 300)
    monkeypatch.undo()
    assert np.array_equal(np.vstack((first.values, second.values)),
                          sample(form, grid, cfg).values)


def test_a_jittered_factor_leaves_the_path_map_to_the_markov_form():
    # two points 4.5e-16 apart have a valid Markov form, but their Gram
    # matrix factors only with jitter, and paths of covariance sigma + lambda I
    # would not have the law the form's certificate is for: the form samples
    problem = Problem(ModulatedBrownian(PowerScale(0.5), 1.0, 4.0),
                      PointGrid([2.0, 2.0 + 4.5e-16, 3.0]))
    assert factorize(problem.kernel.gram(problem.grid)).jitter > 0
    assert isinstance(problem.route, MarkovForm)
    for e in tail_is(problem, [0.5, 1.0, 1.5], make_config(n_paths=100_000)):
        crude = e.meta["crude"]
        assert abs(e.value - crude.value) <= 4 * np.hypot(e.stderr, crude.stderr), e.meta["u"]


def test_markov_route_is_bit_identical_across_batches_and_workers(row_cap):
    problem = markov_problem("example2", 8)  # partial support: the shifted min and argmin run
    assert isinstance(problem.route, MarkovForm)
    cfg, rows = make_config(n_paths=6000), 777
    full = sample(problem.route, problem.grid, cfg).values
    stacked = np.vstack([
        sample(problem.route, problem.grid, cfg, start=s,
               count=min(rows, cfg.n_paths - s)).values
        for s in range(0, cfg.n_paths, rows)])
    assert np.array_equal(stacked, full)
    row_cap(rows)
    results = []
    for workers in (1, 2):
        cfg = make_config(n_paths=6000, workers=workers)
        tails = [(e.value, e.stderr, e.log_value) for e in tail_is(problem, [0.0, 1.0, 2.0], cfg)]
        hists = [(h.weights.tolist(), ess) for h, ess in argmin_conditional(problem, [1.0], cfg)]
        results.append((tails, hists))
    assert results[1] == results[0]


def test_one_fine_batch_allocates_about_one_keystream_buffer():
    # the normals, the paths and the cumsum share the normals' buffer, and
    # functionals does not compute the unread argmin
    problem = markov_problem("ou", 10)
    paths, measure = problem.route, problem.solution.measure
    buffer = MAX_BLOCK_ROWS * 1025 * 8
    tracemalloc.start()
    try:
        batch = sample(paths, problem.grid, make_config(n_paths=MAX_BLOCK_ROWS))
        functionals(batch, measure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffer, f"peak {peak / buffer:.2f} x the buffer"


def test_argmin_of_a_batch_is_the_leftmost_minimum_without_a_copy():
    problem = markov_problem("example1", 7)  # 129 points: the Markov route
    assert isinstance(problem.route, MarkovForm)
    batch = sample(problem.route, problem.grid, make_config(n_paths=MAX_BLOCK_ROWS))
    fn = functionals(batch, problem.solution.measure)
    buffer = MAX_BLOCK_ROWS * 129 * 8
    tracemalloc.start()
    try:
        index = fn.argmin_index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(index, batch.values.argmin(axis=1))
    assert peak <= 0.25 * buffer, f"peak {peak / buffer:.2f} x the buffer"


# ---------------------------------------------------------------------------
# batches: a pass draws and reduces one block of at most BLOCK_VALUES normals
# at once
# ---------------------------------------------------------------------------


def test_narrow_batches_stay_whole():
    # a batch is one block; up to 16 points it keeps its 16384 rows, and from
    # 17 points the cap sets the rows: 2^18 // 33 = 7943, down to 31 times 256
    for n in (3, 9, 16):
        assert block_rows(n) == MAX_BLOCK_ROWS
    assert [block_rows(n) for n in (17, 33, 65, 129, 257)] == [15360, 7936, 3840, 1792, 768]


def test_batch_rows_cap_the_keystream_of_a_batch():
    # 1025 points: 2^18 // 1025 = 255 rows, up to the 256 rows of the smallest block
    assert block_rows(513) == MIN_BLOCK_ROWS
    assert block_rows(1025) == MIN_BLOCK_ROWS
    assert block_rows(4097) == MIN_BLOCK_ROWS
    assert block_rows(2**21 + 1) == MIN_BLOCK_ROWS   # never less than 256 rows


def test_every_batch_is_whole_blocks_within_the_cap():
    for n in range(1, 20_001):
        rows = block_rows(n)
        assert rows == reference_block_rows(n), n
        assert rows % MIN_BLOCK_ROWS == 0 and rows <= MAX_BLOCK_ROWS, n
        assert rows * n <= BLOCK_VALUES or rows == MIN_BLOCK_ROWS, n


def test_the_block_rule_ignores_the_batch_cap(row_cap):
    # a lower cap cuts a pass's blocks into more batches, but no block
    row_cap(1)
    assert estimators.block_rows(33) == 1
    assert gauss_sim.block_rows(33) == 7936


def _seeded_blocks(monkeypatch) -> list:
    """The (block, stage) of every generator gauss_sim seeds from now on."""
    blocks = []
    seed_sequence = gauss_sim.SeedSequence

    def counted(words):
        key = words.view("<u8")
        blocks.append((int(key[2]), int(key[3]) if key.size > 3 else None))
        return seed_sequence(words)

    monkeypatch.setattr(gauss_sim, "SeedSequence", counted)
    return blocks


@pytest.mark.parametrize("k, n_paths", [(5, 3000), (10, 3000), (11, 1000), (12, 1000)])
def test_a_default_pass_draws_each_block_once(monkeypatch, k, n_paths):
    # 33, 1025, 2049 and 4097 points: a batch is one block, so the pass seeds
    # 2 ceil(n_paths / B) generators, one per block and stage
    problem = markov_problem("ou", k)
    blocks = _seeded_blocks(monkeypatch)
    tail_is(problem, [0.0, 1.0], make_config(n_paths=n_paths))
    size = block_rows(problem.grid.n)
    assert sorted(blocks) == [(block, stage) for block in range(-(-n_paths // size))
                              for stage in (0, 1)]


def test_a_default_ou_pass_seeds_one_generator_per_batch_and_stage(monkeypatch):
    # tail_sweep's pass, OU at 33 points with 500k paths: 63 batches of 7936
    # paths and a last one of 32, each one block, seed 2 * 64 = 128
    # generators (3908 with blocks of 256 paths)
    problem = markov_problem("ou", 5)
    blocks = _seeded_blocks(monkeypatch)
    tail_is(problem, [0.0, 1.0, 2.0, 3.0, 4.0], make_config(n_paths=500_000, workers=2))
    assert len(blocks) == 2 * -(-500_000 // 7936) == 128
    assert len(set(blocks)) == 128


@pytest.mark.parametrize("route, k, batches", [
    # 1025 points: the cumsum writes over the normals, and the Cholesky
    # product adds X to them; at 33 points, a staged batch's stage-0 table,
    # stage-1 scratch and X
    pytest.param("markov", 10, 1, id="markov"),
    pytest.param("dense", 10, 2, id="dense"),
    pytest.param("markov", 5, 2, id="markov-33"),
])
def test_a_fine_pass_holds_one_capped_batch(route, k, batches):
    # 16384 paths' normals would be 134 MB at 1025 points and 4.3 MB at 33;
    # the pass draws one block, of 256 paths or of 7936 paths, at a time
    if route == "markov":
        problem = markov_problem("ou", k)
    else:
        problem = Problem(PowerExponential(0.5), DyadicGrid(0.0, 1.0, k))
    paths, _ = problem.route, problem.solution   # built before tracing
    assert isinstance(paths, MarkovForm) == (route == "markov")
    tracemalloc.start()
    try:
        tail_is(problem, [0.0, 1.0], make_config(n_paths=MAX_BLOCK_ROWS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capped = 8 * BLOCK_VALUES
    assert peak <= (batches + 0.25) * capped, f"peak {peak / capped:.2f} x one capped keystream"


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
def test_worker_counts_change_no_capped_pass_output(name, k):
    # no worker count moves a total of a pass whose batches the cap sets;
    # 20001 paths leave a short last batch
    problem = markov_problem(name, k)
    assert block_rows(problem.grid.n) < MAX_BLOCK_ROWS
    one, two = (_sweep_outputs(problem, make_config(n_paths=20_001, workers=workers))
                for workers in (1, 2))
    assert one == two


# ---------------------------------------------------------------------------
# staged paths: coarse to fine
# ---------------------------------------------------------------------------

UNEVEN = PointGrid(1.5 + 2.5 * np.linspace(0.0, 1.0, 150) ** 1.5)   # n - 1 = 18 * 8 + 5


def test_a_prefix_spans_the_grid_in_equal_or_next_wider_intervals():
    # m = min(32, max(1, (n - 1) // 8)) intervals, n - 1 = m width + wide: the
    # first wide intervals hold width + 1 points and the rest width; below 17
    # points one interval, and 257 points keep 32 intervals
    for grid, widths in ((DyadicGrid(1.5, 4.0, 1), [2]),
                         (PointGrid(np.linspace(1.5, 4.0, 16)), [15]),
                         (DyadicGrid(1.5, 4.0, 5), [8] * 4), (DyadicGrid(1.5, 4.0, 6), [8] * 8),
                         (DyadicGrid(1.5, 4.0, 7), [8] * 16),
                         (UNEVEN, [9] * 5 + [8] * 13), (DyadicGrid(1.5, 4.0, 8), [8] * 32),
                         (DyadicGrid(1.5, 4.0, 10), [32] * 32)):
        prefix = Problem(ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), grid).route.prefix
        assert prefix.points[0] == 0 and prefix.points[-1] == grid.n - 1
        assert np.diff(prefix.points).tolist() == prefix.widths.tolist() == widths
        assert np.all((prefix.bridge > 0) & (prefix.bridge <= 1))
        assert np.array_equal(prefix.bridge[prefix.points[1:] - 1], np.ones(len(widths)))
        # the runs of each width cover every column once, in order
        spread = np.empty((1, grid.n - 1))
        prefix._spread(np.arange(len(widths), dtype=float)[None, :], spread)
        assert np.array_equal(spread[0], np.repeat(np.arange(len(widths)), widths))


@pytest.mark.parametrize("grid", [DyadicGrid(1.5, 4.0, 6), DyadicGrid(1.5, 4.0, 7),
                                  DyadicGrid(1.5, 4.0, 8), UNEVEN],
                         ids=["65", "129", "257", "uneven-150"])
def test_staged_paths_have_the_forms_covariance(grid):
    # whole staged paths, with example2's partial support ordering the stage-1
    # rows: every entry of the empirical covariance (every pair of points, so
    # every lag) lies within 5 standard errors of Sigma = q_i q_j r_min(i,j),
    # and every mean within 5 of 0; and the paths whitened by Sigma's exact
    # lower factor, e_j = (X_j / q_j - X_(j-1) / q_(j-1)) / sqrt(dr_j), which
    # resolves each interval's bridge, have the identity covariance just as
    # closely
    problem = Problem(ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), grid)
    form, support = problem.route, problem.solution.support
    assert form.prefix is not None and support.size < grid.n
    n_paths, rows = 60_000, 7680
    sigma = np.outer(form.q, form.q) * np.minimum.outer(form.r, form.r)
    moments = {"sigma": [sigma, np.zeros_like(sigma), np.zeros(grid.n)],
               "white": [np.eye(grid.n), np.zeros_like(sigma), np.zeros(grid.n)]}
    cfg = make_config(n_paths=n_paths)
    for start in range(0, n_paths, rows):
        x = sample(form, grid, cfg, start, min(rows, n_paths - start), support).values
        white = np.diff(x / form.q, axis=1, prepend=0.0) / np.sqrt(np.diff(form.r, prepend=0.0))
        for y, (_, second, first) in zip((x, white), moments.values()):
            second += y.T @ y
            first += y.sum(axis=0)
    for name, (cov, second, first) in moments.items():
        var = np.diag(cov)
        z = (second / n_paths - cov) / np.sqrt((np.outer(var, var) + cov**2) / n_paths)
        assert np.abs(z).max() <= 5.0, f"{name}: max |z| {np.abs(z).max():.2f}"
        assert np.abs(first / n_paths).max() <= 5.0 * np.sqrt(var.max() / n_paths), name


@pytest.mark.parametrize("grid", [DyadicGrid(1.5, 4.0, 8), UNEVEN], ids=["257", "uneven-150"])
def test_a_survivors_only_batch_holds_the_alive_rows_of_the_whole_batch(grid):
    # the rows alive on the support's prefix points, in path order, named by
    # their index; a path alive in one is the same array in the other, and
    # every path left out is <= 0 at a support point
    problem = Problem(ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), grid)
    form, support, cfg = problem.route, problem.solution.support, make_config(n_paths=3000)
    whole = sample(form, grid, cfg, 100, 2000, support)
    alive = sample(form, grid, cfg, 100, 2000, support, survivors_only=True)
    assert np.array_equal(whole.index, np.arange(100, 2100))
    assert 0 < alive.index.size < 2000 and np.all(np.diff(alive.index) > 0)
    assert np.array_equal(alive.values, whole.values[alive.index - 100])
    out = np.setdiff1d(whole.index, alive.index) - 100
    assert np.all(np.any(whole.values[out][:, support] <= 0, axis=1))
    # a path alive in the whole batch and above 0 on the support reaches every fold
    above = np.all(whole.values[:, support] > 0, axis=1)
    assert np.all(np.isin(whole.index[above], alive.index))
    # and each row's Y does not depend on which other rows share its batch
    measure = problem.solution.measure
    y = functionals(whole, measure).y
    assert np.array_equal(functionals(alive, measure).y, y[alive.index - 100])
    for i in alive.index[:20]:
        one = sample(form, grid, cfg, int(i), 1, support)
        assert functionals(one, measure).y[0] == y[i - 100]


@pytest.mark.parametrize("survivors_only", [False, True], ids=["whole", "survivors"])
@pytest.mark.parametrize("grid", [DyadicGrid(1.5, 4.0, 6), DyadicGrid(1.5, 4.0, 7), UNEVEN],
                         ids=["65", "129", "uneven-150"])
def test_a_batch_holds_the_rows_of_one_block_batches(grid, survivors_only):
    # each row is the same array as in the batch of its block alone, whatever
    # the cut (1, 256 or 777 rows), within a block or across a block edge:
    # 600 paths from 300 before the first edge (a 1-row batch draws its
    # block's stage 0 whole)
    problem = Problem(ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), grid)
    form, support = problem.route, problem.solution.support
    size = block_rows(grid.n)
    first, cfg = size - 300, make_config(n_paths=size + 300)
    blocks = [sample(form, grid, cfg, lo, hi - lo, support, survivors_only)
              for lo, hi in ((first, size), (size, cfg.n_paths))]
    index = np.concatenate([b.index for b in blocks])
    values = np.vstack([b.values for b in blocks])
    for rows in (1, 256, 777):
        batches = [sample(form, grid, cfg, lo, min(rows, cfg.n_paths - lo), support,
                          survivors_only) for lo in range(first, cfg.n_paths, rows)]
        assert np.array_equal(np.concatenate([b.index for b in batches]), index)
        assert np.array_equal(np.vstack([b.values for b in batches]), values)


def test_a_batch_completes_its_rows_once_per_block(monkeypatch):
    # the numpy calls of a completion run once per block: at 65 points a
    # block holds 3840 rows
    problem = markov_problem("example2", 6)
    form, grid, support = problem.route, problem.grid, problem.solution.support
    complete, calls = MarkovForm.complete, []

    def counted(self, xi, w, spare):
        calls.append(len(xi))
        return complete(self, xi, w, spare)

    monkeypatch.setattr(MarkovForm, "complete", counted)
    cfg, size = make_config(n_paths=10_000), block_rows(grid.n)
    assert size == 3840
    sample(form, grid, cfg, support=support)    # 3 blocks, every row
    assert calls == [size, size, 10_000 - 2 * size]
    calls.clear()
    # a pass's batch of one block, its alive rows only
    batch = sample(form, grid, cfg, 0, block_rows(grid.n), support, survivors_only=True)
    assert calls == [len(batch.values)]
