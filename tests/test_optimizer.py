"""Simplex QP solver, certificates and dyadic refinement."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import gaussmin.estimators
import gaussmin.gauss_sim
import gaussmin.optimizer
from gaussmin import (
    DyadicGrid,
    ExplicitGram,
    GridMeasure,
    ModulatedBrownian,
    NotPositiveSemidefiniteError,
    OptimizerError,
    OrnsteinUhlenbeck,
    PointGrid,
    Problem,
    ShiftedRootScale,
    argmin_conditional,
    certify,
    discretize,
    ou_measure,
    refine,
    small_ball,
    solve_simplex_qp,
    tail_is,
    tv_distance,
)
from gaussmin.gauss_sim import Factorization, MarkovForm, factorize
from gaussmin.kernels import Kernel
from gaussmin.optimizer import RefinementEntry, RefinementTrace
from conftest import MARKOV_KERNELS, make_config, markov_problem, random_psd
from oracles import mesh_search, support_enumeration


# ---------------------------------------------------------------------------
# theta step: KKT with the full active set
# ---------------------------------------------------------------------------


def test_theta_on_identity():
    sol = solve_simplex_qp(np.eye(2))
    assert sol.method == "theta"
    assert np.allclose(sol.measure.weights, [0.5, 0.5], rtol=0, atol=1e-15)
    assert sol.sigma_star_sq == pytest.approx(0.5, rel=1e-15)


def test_theta_on_equicorrelated_pair():
    sol = solve_simplex_qp(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert sol.method == "theta"
    assert np.allclose(sol.measure.weights, [0.5, 0.5], rtol=0, atol=1e-14)
    assert sol.sigma_star_sq == pytest.approx(0.75, rel=1e-14)


def test_theta_on_smooth_kernel_grid(ou):
    sol = solve_simplex_qp(ou.gram(DyadicGrid(0.0, 1.0, 6)))
    assert sol.method == "theta"
    assert np.all(sol.measure.weights > 0)
    assert 2 / 3 - 1e-12 <= sol.sigma_star_sq <= 2 / 3 + 5e-3


def test_theta_declines_on_singular_matrix():
    # c [[1, 1], [1, 1]] has no Cholesky factor, so theta comes from
    # factorize's jittered one; the flat objective still certifies at sigma*^2 = c
    for c in (1e-8, 1.0, 1e8, 1e12):
        sigma = c * np.array([[1.0, 1.0], [1.0, 1.0]])
        sol = solve_simplex_qp(sigma)
        assert factorize(sigma).jitter > 0
        assert sol.sigma_star_sq == pytest.approx(c, rel=1e-12)
        assert certify(sigma, sol.measure).passed


def test_theta_declines_when_a_component_is_negative():
    # theta proportional to (0.85 - 0.9, 1.0 - 0.9): one negative component,
    # so NNLS runs and puts exactly zero mass on that point
    sol = solve_simplex_qp(np.array([[1.0, 0.9], [0.9, 0.85]]))
    assert sol.method == "nnls"
    assert sol.measure.weights[0] == 0.0
    assert sol.support.tolist() == [1]


def test_active_set_counts_its_steps():
    # the boundary case as a matrix and as its Markov form (r, q): point 0
    # joins, point 1 joins and drives point 0 out, and the third step finds
    # no positive dual; the theta step takes no steps
    sigma = np.array([[1.0, 0.9], [0.9, 0.85]])
    form = MarkovForm.of(np.array([1.0, 0.85 / 0.81]), np.array([1.0, 0.9]))
    for sol in (solve_simplex_qp(sigma), solve_simplex_qp(form)):
        assert (sol.method, sol.iterations) == ("nnls", 2)
        assert sol.sigma_star_sq == pytest.approx(0.85, rel=1e-14)
    assert solve_simplex_qp(np.eye(2)).iterations == 0


@pytest.mark.parametrize("sigma", [
    [[1.0, 1.0, 0.9], [1.0, 1.0, 0.9], [0.9, 0.9, 0.85]],
    [[1.0, 0.9, 0.9], [0.9, 0.85, 0.85], [0.9, 0.85, 0.85]],
])
def test_jittered_nnls_on_singular_grams(sigma):
    # a repeated point makes Sigma singular: the NNLS solves the jittered
    # problem Sigma + lambda I of the sampler's factor, off a partial support
    sigma = np.array(sigma)
    assert factorize(sigma).jitter == 1e-12
    sol = solve_simplex_qp(sigma)
    assert sol.method == "nnls"
    assert sol.measure.weights[0] == 0.0
    assert sol.sigma_star_sq == pytest.approx(support_enumeration(sigma)[0], rel=1e-12)
    assert certify(sigma, sol.measure).passed


def test_dense_theta_on_leaves_out_a_zero_pivot():
    # with no jitter, point 1 repeats point 0, so it has a zero pivot after
    # point 0, whether it joins alone or again after point 2 left the factor
    # ordered 2, 0: it stays out at s = 0, where the active set skips or drops it
    sigma = np.array([[1.0, 1.0, 0.5, 0.5], [1.0, 1.0, 0.5, 0.5],
                      [0.5, 0.5, 1.0, 0.2], [0.5, 0.5, 0.2, 1.0]])
    theta_on = Factorization(sigma=sigma, lower=np.eye(4), jitter=0.0).theta_on
    assert theta_on(np.array([0])).tolist() == [1.0]
    assert theta_on(np.array([0, 1])).tolist() == [1.0, 0.0]
    assert theta_on(np.array([2])).tolist() == [1.0]
    assert theta_on(np.array([0, 2])) == pytest.approx([1 / 1.5, 1 / 1.5], rel=1e-15)
    assert theta_on(np.array([0, 1, 3])) == pytest.approx([1 / 1.5, 0.0, 1 / 1.5],
                                                           rel=1e-15)
    assert theta_on(np.array([1, 3])) == pytest.approx([1 / 1.5, 1 / 1.5], rel=1e-15)


def test_a_dense_route_solves_alike_twice():
    # example2's Gram matrix at k=5 has a partial support, so the active set
    # grows packed rows on the route; the next solve must not read them, even
    # after a subset of another order was solved in between
    problem = markov_problem("example2", 5)
    route = factorize(problem.kernel.gram(problem.grid))
    first = solve_simplex_qp(route, grid=problem.grid)
    route.theta_on(np.array([3, 7, 20]))
    second = solve_simplex_qp(route, grid=problem.grid)
    assert first.method == "nnls" and 0 < first.support.size < route.n
    assert second.measure.weights.tobytes() == first.measure.weights.tobytes()
    assert second.iterations == first.iterations


def test_theta_negativity_threshold_is_scale_invariant():
    # theta proportional to (0.85 - 0.9, 1.0 - 0.9): one negative component,
    # detected relative to max|theta| at every scale, so NNLS runs
    sigma = np.array([[1.0, 0.9], [0.9, 0.85]])
    for c in (1e-8, 1.0, 1e8):
        sol = solve_simplex_qp(c * sigma)
        assert sol.method == "nnls"
        assert np.allclose(sol.measure.weights, [0.0, 1.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------


def test_solver_on_one_point():
    sol = solve_simplex_qp(np.array([[2.5]]))
    assert np.array_equal(sol.measure.weights, [1.0])
    assert sol.sigma_star_sq == pytest.approx(2.5, rel=1e-15)


def test_solver_interior_optimum_matches_hand_derivation():
    # 1-D line search over nu = (1-w, w): w* = 0.1/3.2, value 0.996875
    sigma = np.array([[1.0, 0.9], [0.9, 4.0]])
    sol = solve_simplex_qp(sigma)
    assert np.allclose(sol.measure.weights, [0.96875, 0.03125], rtol=0, atol=1e-12)
    assert sol.sigma_star_sq == pytest.approx(0.996875, rel=1e-12)
    oracle_val, oracle_w = support_enumeration(sigma)
    assert sol.sigma_star_sq == pytest.approx(oracle_val, rel=1e-12)
    assert np.allclose(sol.measure.weights, oracle_w, atol=1e-12)


def test_solver_resolves_boundary_optimum_when_theta_declines():
    sigma = np.array([[1.0, 0.9], [0.9, 0.85]])
    sol = solve_simplex_qp(sigma)
    assert sol.method == "nnls"
    assert np.allclose(sol.measure.weights, [0.0, 1.0], rtol=0, atol=1e-12)
    assert sol.sigma_star_sq == pytest.approx(0.85, rel=1e-12)
    assert sol.certificate[0] == pytest.approx(0.9, rel=1e-12)  # strict slack off support


def test_solver_full_support_with_equality_certificate(pe_half):
    grid = DyadicGrid(0.0, 1.0, 5)
    sol = solve_simplex_qp(pe_half.gram(grid), grid=grid)
    assert np.all(sol.measure.weights > 0)
    assert sol.support.size == grid.n
    dev = np.abs(sol.certificate - sol.sigma_star_sq).max()
    assert dev <= 1e-8 * sol.sigma_star_sq


def test_solver_on_rank_deficient_flat_objective():
    sol = solve_simplex_qp(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert sol.sigma_star_sq == pytest.approx(1.0, rel=1e-12)


def test_solver_rejects_non_psd_and_asymmetric_input():
    # certify screens a matrix as the solver does: shape, NaN and inf, symmetry
    measure = GridMeasure(PointGrid(np.arange(2.0)), np.array([0.5, 0.5]))
    for sigma in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.2], [0.3, 1.0]], [[1.0, 0.0, 0.0]],
                  [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(NotPositiveSemidefiniteError):
            solve_simplex_qp(np.array(sigma))
        with pytest.raises(NotPositiveSemidefiniteError):
            certify(np.array(sigma), measure)


def test_solver_certifies_a_matrix_its_factorization_accepts():
    # lowest eigenvalue -5e-7: factorize takes it with jitter 1e-6 (scaled),
    # and the certificate is then the solve's, not a second PSD screen
    sigma = [[1.0, 1.0 + 5e-7], [1.0 + 5e-7, 1.0]]
    sol = solve_simplex_qp(sigma)
    np.testing.assert_allclose(sol.measure.weights, [0.5, 0.5], rtol=0, atol=1e-9)
    assert sol.sigma_star_sq == pytest.approx(1.0 + 2.5e-7, rel=1e-15)
    assert sol.report.passed
    # the public certify still screens a matrix from outside the solver
    with pytest.raises(NotPositiveSemidefiniteError):
        certify(np.array(sigma), sol.measure)


def test_solver_grid_size_must_match():
    with pytest.raises(OptimizerError):
        solve_simplex_qp(np.eye(3), grid=DyadicGrid(0.0, 1.0, 2))


def test_solution_invariants_across_instances(ou, pe_half):
    rng = np.random.default_rng(21)
    instances = [ou.gram(DyadicGrid(0.0, 1.0, 4)),
                 pe_half.gram(DyadicGrid(0.0, 1.0, 4))]
    instances += [random_psd(rng, n) for n in (3, 6, 12, 24)]
    for sigma in instances:
        sol = solve_simplex_qp(sigma)
        w = sol.measure.weights
        assert sol.certificate.min() >= sol.sigma_star_sq * (1 - 1e-8)
        dev = np.abs(sol.certificate[sol.support] - sol.sigma_star_sq).max()
        assert dev <= 1e-8 * sol.sigma_star_sq
        assert float(w @ sigma @ w) == pytest.approx(sol.sigma_star_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle agreement on small grids
# ---------------------------------------------------------------------------


def test_solver_matches_exact_enumeration_on_small_matrices():
    rng = np.random.default_rng(22)
    cases = [random_psd(rng, n, ridge=rng.uniform(0.02, 0.3)) for n in (2, 3, 4, 5, 6, 6)]
    cases.append(np.array([[1.0, 0.9], [0.9, 4.0]]))
    for sigma in cases:
        sol = solve_simplex_qp(sigma)
        exact_val, _ = support_enumeration(sigma)
        assert sol.sigma_star_sq == pytest.approx(exact_val, abs=1e-10)


def test_solver_matches_lattice_mesh_search_on_small_grids(ou, pe_half):
    grids = [(ou, DyadicGrid(0.0, 1.0, 1)), (ou, DyadicGrid(0.0, 1.0, 2)),
             (pe_half, DyadicGrid(0.0, 1.0, 2))]
    for kern, grid in grids:
        sigma = kern.gram(grid)
        sol = solve_simplex_qp(sigma, grid=grid)
        mesh_val, _ = mesh_search(sigma, mesh=1e-3)
        assert abs(sol.sigma_star_sq - mesh_val) <= 1e-5
        assert sol.sigma_star_sq <= mesh_val + 1e-12  # solver is at least as good


def test_solver_beats_theta_declining_instances_against_enumeration():
    # random instances where theta has a negative component, so the NNLS
    # route runs, against the exact oracle
    rng = np.random.default_rng(23)
    tested = 0
    while tested < 6:
        sigma = random_psd(rng, 8, ridge=0.01)
        sol = solve_simplex_qp(sigma)
        if sol.method != "nnls":
            continue
        tested += 1
        exact_val, _ = support_enumeration(sigma)
        assert sol.sigma_star_sq == pytest.approx(exact_val, abs=1e-10)


def test_sigma_star_sq_and_certificate_belong_to_the_returned_measure(ou):
    # OU takes the theta route, example2 (partial support) the NNLS route
    cases = [(ou, DyadicGrid(0.0, 1.0, 6), "theta"),
             (ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0),
              DyadicGrid(1.5, 4.0, 8), "nnls")]
    for kern, grid, method in cases:
        sigma = kern.gram(grid)
        sol = solve_simplex_qp(sigma, grid=grid)
        assert sol.method == method
        w = sol.measure.weights
        assert sol.sigma_star_sq == float(w @ (sigma @ w))
        assert np.array_equal(sol.certificate, sigma @ w)


def test_nnls_certifies_partial_support_at_level_11():
    # example2 (case B): the optimum leaves the left end of the grid empty
    kern = ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0)
    grid = DyadicGrid(1.5, 4.0, 11)
    sigma = kern.gram(grid)
    sol = solve_simplex_qp(sigma, grid=grid)
    assert sol.method == "nnls"
    assert sol.support.size < grid.n
    assert certify(sigma, sol.measure).passed


# ---------------------------------------------------------------------------
# equivariances and support structure
# ---------------------------------------------------------------------------


def test_scale_equivariance():
    rng = np.random.default_rng(24)
    sigma = random_psd(rng, 10)
    base = solve_simplex_qp(sigma)
    for c in (1e-6, 3.7, 1e6):
        scaled = solve_simplex_qp(c * sigma)
        gm_base = GridMeasure(PointGrid(np.arange(10.0)), base.measure.weights)
        gm_scaled = GridMeasure(PointGrid(np.arange(10.0)), scaled.measure.weights)
        assert tv_distance(gm_base, gm_scaled) <= 1e-9
        assert scaled.sigma_star_sq == pytest.approx(c * base.sigma_star_sq, rel=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(25)
    sigma = random_psd(rng, 9)
    perm = rng.permutation(9)
    base = solve_simplex_qp(sigma)
    permuted = solve_simplex_qp(sigma[np.ix_(perm, perm)])
    assert np.allclose(permuted.measure.weights, base.measure.weights[perm], atol=1e-10)


def test_full_support_for_smooth_kernels(ou, pe_half):
    for kern in (ou, pe_half):
        for k in (2, 5, 8):
            grid = DyadicGrid(0.0, 1.0, k)
            sol = solve_simplex_qp(kern.gram(grid), grid=grid)
            assert np.all(sol.measure.weights > 0), f"zero weight at k={k}"


def test_solver_is_deterministic():
    rng = np.random.default_rng(26)
    sigma = random_psd(rng, 16)
    a = solve_simplex_qp(sigma)
    b = solve_simplex_qp(sigma)
    assert np.array_equal(a.measure.weights, b.measure.weights)
    assert a.sigma_star_sq == b.sigma_star_sq


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_accepts_the_optimum():
    report = certify(np.eye(2), GridMeasure(PointGrid(np.arange(2.0)),
                                            np.array([0.5, 0.5])))
    assert report.passed
    assert report.min_slack == pytest.approx(0.0, abs=1e-15)
    assert report.max_support_violation == pytest.approx(0.0, abs=1e-15)


def test_certify_rejects_a_vertex_that_is_not_optimal():
    # with nu = (1, 0): m = (1, 0.5), sigma_sq = 1, so the off-support slack
    # is 0.5 - 1 = -0.5 and the report must fail
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    report = certify(sigma, GridMeasure(PointGrid(np.arange(2.0)),
                                        np.array([1.0, 0.0])))
    assert not report.passed
    assert report.min_slack == pytest.approx(-0.5, rel=1e-12)
    assert report.max_support_violation == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(report.m, [1.0, 0.5], rtol=0, atol=1e-15)


def test_certify_passes_refined_solution(ou):
    grid = DyadicGrid(0.0, 1.0, 6)
    sigma = ou.gram(grid)
    sol = solve_simplex_qp(sigma, grid=grid)
    report = certify(sigma, sol.measure)
    assert report.passed


def test_certify_size_mismatch():
    with pytest.raises(OptimizerError):
        certify(np.eye(3), GridMeasure(PointGrid(np.arange(2.0)),
                                       np.array([0.5, 0.5])))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_converges_to_the_closed_form_limit(ou):
    trace = refine(ou, (0.0, 1.0), 2, 8, stop_tol=1e-5)
    vals = trace.sigma_values
    assert np.all(np.diff(vals) <= 1e-10)
    assert 2 / 3 - 1e-12 <= trace.final.sigma_star_sq <= 2 / 3 + 5e-3
    assert trace.converged


def test_refine_single_entry_for_fixed_grid_kernel():
    kern = ExplicitGram(np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([0.0, 1.0]))
    trace = refine(kern, (0.0, 1.0), 2, 8)
    assert len(trace.entries) == 1
    assert trace.converged
    assert trace.final.sigma_star_sq == pytest.approx(0.75, rel=1e-12)


def test_refine_strictly_decreasing_for_rough_kernel(pe_half):
    trace = refine(pe_half, (0.0, 1.0), 2, 8, stop_tol=1e-14)
    vals = trace.sigma_values
    assert len(vals) == 7
    assert np.all(np.diff(vals) < 0)


def test_refine_keeps_only_the_final_level_problem(ou, monkeypatch):
    # refine looks Problem up in gaussmin.estimators at call time
    real_problem = gaussmin.estimators.Problem
    built = []

    def tracked_problem(kernel, grid):
        problem = real_problem(kernel, grid)
        built.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(gaussmin.estimators, "Problem", tracked_problem)
    trace = refine(ou, (0.0, 1.0), 2, 6, stop_tol=1e-14)
    gc.collect()
    assert len(built) == len(trace.entries) == 5
    assert built[-1]() is trace.problem
    assert trace.problem.grid.points.size == 2**6 + 1
    assert [ref() for ref in built[:-1]] == [None] * 4


def test_refine_validates_level_range(ou):
    with pytest.raises(OptimizerError):
        refine(ou, (0.0, 1.0), 5, 3)
    with pytest.raises(OptimizerError):
        refine(ou, (0.0, 1.0), 0, 14)


def test_refinement_trace_rejects_increasing_values():
    grid = DyadicGrid(0.0, 1.0, 1)
    gm = GridMeasure(grid, np.full(3, 1 / 3))
    entries = (RefinementEntry(1, 0.5, gm), RefinementEntry(2, 0.6, gm))
    with pytest.raises(OptimizerError):
        RefinementTrace(entries=entries, converged=True, final_gap=-0.1, problem=None)


def test_solution_agrees_with_discretized_closed_form(ou):
    grid = DyadicGrid(0.0, 1.0, 6)
    sol = solve_simplex_qp(ou.gram(grid), grid=grid)
    reference = discretize(ou_measure(0.0, 1.0), grid)
    assert tv_distance(sol.measure, reference) <= 0.05


# ---------------------------------------------------------------------------
# the Markov route: O(n) theta, active set and certificate, no Gram matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("name", sorted(MARKOV_KERNELS))
def test_markov_solve_matches_the_dense_solve(name, k):
    problem = markov_problem(name, k)
    assert problem.route.name == "markov"
    markov = problem.solution
    sigma = problem.kernel.gram(problem.grid)
    dense = solve_simplex_qp(sigma, grid=problem.grid)
    assert markov.method == dense.method == ("nnls" if name == "example2" else "theta")
    assert markov.sigma_star_sq == pytest.approx(dense.sigma_star_sq, rel=1e-13, abs=0)
    assert np.array_equal(markov.support, dense.support)
    report = certify(sigma, markov.measure)
    assert report.passed
    assert np.abs(markov.certificate - report.m).max() <= 1e-12 * np.abs(report.m).max()


def test_markov_active_set_counts_its_steps_on_example2():
    # example2 at k=8: each of the 206 support points joins once, and one
    # more point joins and is dropped on the third step; the dense route
    # takes the same steps
    problem = markov_problem("example2", 8)
    markov = problem.solution
    dense = solve_simplex_qp(problem.kernel.gram(problem.grid), grid=problem.grid)
    assert markov.support.size == 206
    assert markov.iterations == dense.iterations == 207


def test_markov_route_certifies_example2_at_level_12():
    problem = markov_problem("example2", 12)
    sol = problem.solution
    assert problem.route.name == "markov" and sol.method == "nnls"
    assert 0 < sol.support.size < problem.grid.n
    assert sol.report.passed


def test_a_markov_problem_builds_no_gram_matrix_and_no_factor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Markov route built a dense matrix or factor")

    monkeypatch.setattr(Kernel, "gram", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for module in (gaussmin.estimators, gaussmin.gauss_sim, gaussmin.optimizer):
        monkeypatch.setattr(module, "factorize", refuse)
    cfg = make_config(n_paths=2000)
    # 33 points sample by the form's product and 1025 by its cumsum; on
    # example2's partial support the shifted tilt runs
    for name, k in itertools.product(sorted(MARKOV_KERNELS), (5, 10)):
        problem = markov_problem(name, k)
        assert tail_is(problem, [0.0, 1.0], cfg)[1].value > 0
        assert not isinstance(argmin_conditional(problem, [1.0], cfg)[0], Exception)
        for mode in ("range", "zstar"):
            assert small_ball(problem, [1.0], cfg, mode=mode)[0].value > 0


@pytest.mark.parametrize("name", sorted(MARKOV_KERNELS))
def test_refine_on_a_markov_kernel_builds_no_gram_matrix_at_any_level(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("refine built a dense matrix or factor")

    monkeypatch.setattr(Kernel, "gram", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for module in (gaussmin.estimators, gaussmin.gauss_sim, gaussmin.optimizer):
        monkeypatch.setattr(module, "factorize", refuse)
    kernel, a, b = MARKOV_KERNELS[name]
    trace = refine(kernel, (a, b), 2, 8, stop_tol=0.0)
    assert [e.k for e in trace.entries] == list(range(2, 9))
    assert trace.problem.route.name == "markov"


def test_the_solver_and_the_certificate_refuse_a_plain_tuple():
    # (r, q) = ([1, 2], [2, 5]) is a valid form, of Sigma = [[4, 10], [10, 50]]
    # and sigma*^2 = 4, whose pair np.asarray would read as the symmetric PSD
    # matrix [[1, 2], [2, 5]] and solve silently to 1: a form is built by
    # MarkovForm.of, the one check of this route
    r, q = np.array([1.0, 2.0]), np.array([2.0, 5.0])
    measure = GridMeasure(PointGrid(np.arange(2.0)), np.array([0.5, 0.5]))
    with pytest.raises(TypeError, match=r"MarkovForm\.of"):
        solve_simplex_qp((r, q))
    with pytest.raises(TypeError, match=r"MarkovForm\.of"):
        certify((r, q), measure)
    form = MarkovForm.of(r, q)
    assert solve_simplex_qp(form).sigma_star_sq == pytest.approx(4.0, rel=1e-15)
    assert solve_simplex_qp(np.array((r, q))).sigma_star_sq == pytest.approx(1.0, rel=1e-15)
    assert certify(form, measure).sigma_sq == pytest.approx(18.5, rel=1e-15)


@pytest.mark.parametrize("k", [8, 10, 12])
def test_markov_weights_match_the_exact_ou_grid_optimum(k):
    # OU on an even grid of step h: Sigma^-1 1 is 1/(1 + e^-h) at the two ends
    # and (1 - e^-h)/(1 + e^-h) inside. The O(n) theta keeps the rounding
    # error of the smallest weights within 1e-15 * 4^k (the dense Cholesky
    # route reaches 3e-9 at k=10 and 1e-7 at k=12)
    grid = DyadicGrid(0.0, 1.0, k)
    problem = Problem(OrnsteinUhlenbeck(), grid)
    assert problem.route.name == "markov"
    theta = np.full(grid.n, -np.expm1(-(2.0**-k)))
    theta[[0, -1]] = 1.0
    exact = theta / theta.sum()
    error = np.abs(problem.solution.measure.weights / exact - 1.0).max()
    assert error <= 1e-15 * 4.0**k


def test_markov_nnls_matches_the_dense_nnls_on_random_markov_forms():
    # q of both signs puts about half the points off the support, so the
    # active set drops points as well as adding them
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(130, 300))
        r = np.cumsum(rng.uniform(0.01, 1.0, n))
        q = rng.uniform(0.2, 2.0, n) * np.where(rng.random(n) < 0.2, -1.0, 1.0)
        sigma = q[:, None] * q[None, :] * np.minimum(r[:, None], r[None, :])
        markov, dense = solve_simplex_qp(MarkovForm.of(r, q)), solve_simplex_qp(sigma)
        assert markov.method == dense.method == "nnls"
        assert np.array_equal(markov.support, dense.support)
        assert markov.sigma_star_sq == pytest.approx(dense.sigma_star_sq, rel=1e-11)
        assert certify(sigma, markov.measure).passed
