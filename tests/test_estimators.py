"""Tail, small-ball and conditional-argmin estimators."""

import os
from dataclasses import replace

import numpy as np
import pytest

import gaussmin.estimators
from gaussmin import (
    DyadicGrid,
    Estimate,
    EstimationError,
    ExplicitGram,
    ModulatedBrownian,
    Problem,
    ShiftedRootScale,
    argmin_conditional,
    correction_diagnostic,
    fit_correction_exponent,
    functionals,
    mx_conditional,
    sample,
    small_ball,
    tail_crude,
    tail_is,
)
from gaussmin.estimators import (JACKKNIFE_GROUPS, argmin_sweep, correction_sweep, mx_sweep,
                                 run_sweeps, small_ball_sweep, tail_is_sweep)
from conftest import make_config, markov_problem
from oracles import (binomial_bin_stderr, orthant_closed, planted_logp,
                     weighted_bin_stderr)


def _explicit(sigma) -> Problem:
    sigma = np.asarray(sigma, dtype=float)
    kern = ExplicitGram(sigma, np.arange(sigma.shape[0], dtype=float))
    return Problem(kern, kern.grid())


def _correlated_pair(rho=0.5) -> Problem:
    return _explicit([[1.0, rho], [rho, 1.0]])


# ---------------------------------------------------------------------------
# crude tail estimates against orthant probabilities
# ---------------------------------------------------------------------------


def test_crude_tail_singleton():
    [est] = tail_crude(_explicit([[1.0]]), [0.0], make_config())
    assert abs(est.value - 0.5) <= 4 * est.stderr
    assert est.n == 100_000
    assert est.meta["method"] == "tail_crude"


def test_crude_tail_independent_pair():
    [est] = tail_crude(_correlated_pair(0.0), [0.0], make_config())
    assert abs(est.value - 0.25) <= 4 * est.stderr


def test_crude_tail_correlated_pair_matches_orthant_formula():
    [est] = tail_crude(_correlated_pair(0.5), [0.0], make_config(n_paths=200_000))
    assert abs(est.value - orthant_closed(0.5)) <= 4 * est.stderr
    assert orthant_closed(0.5) == pytest.approx(1 / 3, abs=1e-15)


def test_crude_tail_decreases_in_u_with_a_shared_seed(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    values = [e.value for e in tail_crude(ou_problem_k5, [0.0, 0.5, 1.0, 2.0], cfg)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# change-of-measure tail estimates
# ---------------------------------------------------------------------------


def test_is_tail_equals_crude_at_u_zero(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    [crude] = tail_crude(ou_problem_k5, [0.0], cfg)
    [weighted] = tail_is(ou_problem_k5, [0.0], cfg)
    assert weighted.value == crude.value  # bit-identical survivor count


def test_is_tail_agrees_with_crude_at_moderate_u(ou):
    problem = Problem(ou, DyadicGrid(0.0, 1.0, 6))
    [crude] = tail_crude(problem, [1.0], make_config(n_paths=100_000))
    [weighted] = tail_is(problem, [1.0], make_config(n_paths=100_000, stream=5))
    combined = np.hypot(crude.stderr, weighted.stderr)
    assert abs(crude.value - weighted.value) <= 3 * combined


def test_is_tail_agrees_with_crude_without_full_support():
    # example2 (case B): nu* leaves grid points uncharged, where m_j > sigma*^2,
    # so survival is tested on X + u (m / sigma*^2 - 1), not on X
    kern = ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0)
    problem = Problem(kern, DyadicGrid(1.5, 4.0, 5))
    assert problem.solution.support.size < problem.grid.n
    us = [1.0, 2.0]
    crudes = tail_crude(problem, us, make_config(n_paths=2_000_000, workers=2))
    weighteds = tail_is(problem, us, make_config(n_paths=2_000_000, stream=1, workers=2))
    for u, crude, weighted in zip(us, crudes, weighteds):
        combined = np.hypot(crude.stderr, weighted.stderr)
        assert abs(crude.value - weighted.value) <= 3 * combined, u


def test_is_tail_reaches_where_crude_sees_nothing(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    [crude] = tail_crude(ou_problem_k5, [6.0], cfg)
    [weighted] = tail_is(ou_problem_k5, [6.0], cfg)
    assert crude.meta["zero_hits"]
    assert weighted.value > 0
    assert np.isfinite(weighted.log_value)
    assert weighted.meta["rel_stderr"] < 0.2


def test_is_tail_log_only_regime():
    # deep tail: value underflows but the log estimate stays finite
    [deep] = tail_is(_explicit([[1.0]]), [45.0], make_config(n_paths=20_000))
    assert deep.value == 0.0
    assert deep.meta["log_only"]
    assert np.isfinite(deep.log_value)
    assert deep.log_value < -645


# ---------------------------------------------------------------------------
# small-ball probabilities
# ---------------------------------------------------------------------------


def test_small_ball_trivial_cases(ou_problem_k2):
    assert small_ball(ou_problem_k2, [1e6], make_config(n_paths=1000))[0].value == 1.0
    assert small_ball(_explicit([[1.0]]), [1e-8], make_config(n_paths=1000))[0].value == 1.0


def test_small_ball_decreases_with_eps_on_a_shared_seed(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    vals = [e.value for e in small_ball(ou_problem_k5, [1.0, 0.8, 0.6], cfg)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_small_ball_zstar_mode(ou_problem_k5):
    [est] = small_ball(ou_problem_k5, [0.5], make_config(n_paths=50_000), mode="zstar")
    assert 0 < est.value < 1
    assert est.meta["method"] == "small_ball_zstar"


def test_small_ball_argument_validation(ou_problem_k2):
    with pytest.raises(ValueError):
        small_ball(ou_problem_k2, [0.5, 0.0], make_config(n_paths=100))
    with pytest.raises(ValueError):
        small_ball(ou_problem_k2, [0.5], make_config(n_paths=100), mode="volume")


# ---------------------------------------------------------------------------
# correction-exponent fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_a_planted_exponent():
    sigma_sq = 2 / 3
    u = np.array([2.0, 3.0, 4.0, 5.0, 8.0])
    log_p = np.array([planted_logp(x, sigma_sq, gamma=2 / 3, scale=1.3) for x in u])
    slope, intercept, used = fit_correction_exponent(u, log_p, sigma_sq)
    assert slope == pytest.approx(2 / 3, abs=1e-6)
    assert intercept == pytest.approx(np.log(1.3), abs=1e-6)
    assert used.all()


def test_fit_excludes_nonnegative_deviations():
    sigma_sq = 0.5
    u = np.array([1.0, 2.0, 3.0, 4.0])
    log_p = np.array([planted_logp(x, sigma_sq) for x in u])
    log_p[1] = -u[1] ** 2 / (2 * sigma_sq) + 0.5  # D(u_2) = +0.5
    slope, _, used = fit_correction_exponent(u, log_p, sigma_sq)
    assert list(used) == [True, False, True, True]
    assert slope == pytest.approx(2 / 3, abs=1e-6)


def test_fit_input_validation():
    with pytest.raises(EstimationError):
        fit_correction_exponent([1.0], [-1.0], 0.5)
    with pytest.raises(EstimationError):
        fit_correction_exponent([1.0, 1.0], [-1.0, -2.0], 0.5)
    with pytest.raises(EstimationError):
        fit_correction_exponent([-1.0, 2.0], [-1.0, -2.0], 0.5)
    # every D >= 0: nothing to fit
    with pytest.raises(EstimationError):
        fit_correction_exponent([1.0, 2.0], [0.0, 0.0], 0.5)


def test_correction_diagnostic_end_to_end(ou):
    problem = Problem(ou, DyadicGrid(0.0, 1.0, 4))
    cfg = make_config(n_paths=20_000)
    us = [1.0, 2.0, 3.0]
    diag = correction_diagnostic(problem, us, cfg)
    assert len(diag.rows) == 3
    assert all(d < 0 for _, _, d in diag.rows)
    assert 0 < diag.exponent < 1.2
    assert 0 < diag.exponent_halfwidth < 0.2
    # one pass for every u, on the first substream: each estimate is tail_is's
    # there, field for field (meta, with its crude Estimate, included)
    again = tail_is(problem, us, replace(cfg, stream=cfg.stream + 1))
    for est, ref in zip(diag.estimates, again, strict=True):
        for name in ("value", "stderr", "n", "log_value", "meta"):
            assert getattr(est, name) == getattr(ref, name), name
    # the groups split the paths: their sums are the estimate's totals
    for est, groups in zip(diag.estimates, diag.group_stats):
        assert len(groups) == JACKKNIFE_GROUPS
        assert sum(g[0] for g in groups) == est.meta["n_surviving"]
        assert np.logaddexp.reduce([g[3] for g in groups]) == pytest.approx(
            est.log_value + np.log(cfg.n_paths) + est.meta["u"] ** 2
            / (2 * problem.solution.sigma_star_sq), rel=1e-12)


def test_correction_diagnostic_jackknife_covers_the_seed_spread(ou):
    # the diagnose preset's sweep: the exponent's sd over 20 seeds agrees with
    # the mean jackknife standard error (half-width / 1.96)
    problem = Problem(ou, DyadicGrid(0.0, 1.0, 6))
    us = [2.0, 2.5, 3.0, 3.5, 4.0]
    diags = [correction_diagnostic(problem, us, make_config(seed=seed, n_paths=50_000))
             for seed in range(1, 21)]
    sd = float(np.std([d.exponent for d in diags], ddof=1))
    se = float(np.mean([d.exponent_halfwidth for d in diags])) / 1.96
    assert 0.67 * se <= sd <= 1.5 * se, f"sd {sd:.4f} over seeds, jackknife se {se:.4f}"


def test_correction_diagnostic_batch_size_moves_no_group_count(row_cap):
    # 257 points: a pass draws batches of 7936 paths, and batches capped at
    # 777 paths straddle the group boundaries
    problem = markov_problem("example1", 8)
    us = [2.0, 2.5, 3.0, 3.5, 4.0]
    cfg = make_config(n_paths=20_001)
    a = correction_diagnostic(problem, us, cfg)
    row_cap(777)
    b = correction_diagnostic(problem, us, cfg)
    assert [[g[0] for g in u] for u in a.group_stats] == \
        [[g[0] for g in u] for u in b.group_stats]
    assert a.excluded == b.excluded

    def numbers(diag) -> list[float]:
        return ([diag.exponent, diag.intercept, diag.exponent_halfwidth]
                + [x for row in diag.rows for x in row]
                + [x for est in diag.estimates for x in (est.value, est.stderr, est.log_value)]
                + [x for u in diag.group_stats for g in u for x in g[1:]])

    np.testing.assert_allclose(numbers(a), numbers(b), rtol=1e-12, atol=0)


def test_log_sums_add_across_batches_with_no_survivor(ou_problem_k5, row_cap):
    # one path per batch: about 85% of the batches have no surviving path, so
    # most log sums of weights that are added start at -inf
    us = [1.0, 2.0, 3.0]
    cfg = make_config(n_paths=2000)   # one batch

    def run():
        return tail_is(ou_problem_k5, us, cfg), correction_diagnostic(ou_problem_k5, us, cfg)

    whole, b = run()
    row_cap(1)
    one, a = run()
    for x, y in zip(one, whole):
        assert 0 < x.meta["n_surviving"] == y.meta["n_surviving"] < 2000 // 2
        assert x.meta["crude"].meta["hits"] == y.meta["crude"].meta["hits"]
        assert x.log_value == pytest.approx(y.log_value, rel=1e-13, abs=0)
    assert [[g[0] for g in u] for u in a.group_stats] == \
        [[g[0] for g in u] for u in b.group_stats]

    def logs(diag) -> list[float]:
        return [e.log_value for e in diag.estimates] + [g[3] for u in diag.group_stats for g in u]

    np.testing.assert_allclose(logs(a), logs(b), rtol=1e-13, atol=0)


def test_a_correction_sweep_cuts_its_path_groups_for_the_pass_it_runs_in(ou_problem_k5,
                                                                         row_cap):
    # one sweep in a 1000-path and in a 3000-path pass: each result is that
    # pass's own diagnostic, with every path group filled
    us = [0.5, 1.0, 2.0]
    sweep = correction_sweep(ou_problem_k5, us)
    row_cap(512)
    for n_paths in (1000, 3000):
        cfg = make_config(n_paths=n_paths, stream=1)
        [diagnostic] = run_sweeps(ou_problem_k5, cfg, [sweep])
        assert diagnostic == correction_diagnostic(ou_problem_k5, us, replace(cfg, stream=0))
        assert all(g[0] > 0 for g in diagnostic.group_stats[0])


def test_correction_diagnostic_validates_u_list(ou_problem_k2):
    cfg = make_config(n_paths=100)
    with pytest.raises(EstimationError):
        correction_diagnostic(ou_problem_k2, [2.0], cfg)
    with pytest.raises(EstimationError):
        correction_diagnostic(ou_problem_k2, [2.0, 2.0], cfg)
    with pytest.raises(EstimationError):
        correction_diagnostic(ou_problem_k2, [0.0, 1.0], cfg)


# ---------------------------------------------------------------------------
# conditional argmin laws
# ---------------------------------------------------------------------------


def test_argmin_law_two_iid_points_is_uniform():
    [(hist, ess)] = argmin_conditional(_explicit(np.eye(2)), [0.0], make_config())
    stderr = 2.0 / np.sqrt(ess)
    assert abs(hist.weights[0] - 0.5) <= 3 * stderr
    assert hist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # at u = 0 the weights are indicators, so ess = surviving paths,
    # about one quarter of all paths here
    assert 0.2 * 100_000 < ess < 0.3 * 100_000


def test_argmin_law_matches_direct_conditioning(ou_problem_k2):
    u = 1.0
    cfg = make_config(n_paths=100_000)
    grid, sol = ou_problem_k2.grid, ou_problem_k2.solution
    [(weighted, ess)] = argmin_conditional(ou_problem_k2, [u], cfg)
    assert ess >= 100

    # manual replication of the weighting, for per-bin standard errors
    batch = sample(ou_problem_k2.route, grid, cfg)
    fn = functionals(batch, sol.measure)
    keep = fn.min_value > 0
    w = np.exp(-u * fn.y[keep] / sol.sigma_star_sq)
    idx = fn.argmin_index[keep]
    manual = np.bincount(idx, weights=w, minlength=grid.n)
    assert np.allclose(weighted.weights, manual / manual.sum(), atol=1e-12)
    se_w = weighted_bin_stderr(w, idx, grid.n)

    # independent direct-conditioning sample on another stream
    direct_cfg = make_config(n_paths=400_000, stream=9)
    batch2 = sample(ou_problem_k2.route, grid, direct_cfg)
    fn2 = functionals(batch2, sol.measure)
    hits = fn2.min_value > u
    counts = np.bincount(fn2.argmin_index[hits], minlength=grid.n)
    direct = counts / counts.sum()
    se_d = binomial_bin_stderr(counts)
    gap = np.abs(weighted.weights - direct)
    assert np.all(gap <= 3 * np.hypot(se_w, se_d) + 1e-12)


def test_argmin_law_rejects_negative_u(ou_problem_k2):
    with pytest.raises(EstimationError):
        argmin_conditional(ou_problem_k2, [1.0, -0.5], make_config(n_paths=1000))


def test_mx_law_with_huge_threshold_equals_unconditional_argmin(ou_problem_k2):
    cfg = make_config(n_paths=50_000)
    [(via_u, _)] = argmin_conditional(ou_problem_k2, [0.0], cfg)
    [via_x] = mx_conditional(ou_problem_k2, [1e6], cfg)
    assert np.array_equal(via_u.weights, via_x.weights)


def test_mx_law_two_iid_points():
    [hist] = mx_conditional(_explicit(np.eye(2)), [0.5], make_config())
    assert abs(hist.weights[0] - 0.5) <= 0.05


def test_mx_law_validation(ou_problem_k2):
    with pytest.raises(EstimationError):
        mx_conditional(ou_problem_k2, [1.0, 0.0], make_config(n_paths=100))
    # min > 0 forces Y > 0, so an extreme threshold leaves no paths; that
    # fails only its own entry
    empty, ok = mx_conditional(ou_problem_k2, [1e-12, 1.0], make_config(n_paths=5000))
    assert isinstance(empty, EstimationError)
    assert str(empty) == "no paths satisfy Y <= 1e-12 and min > 0; no histogram"
    assert ok.weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# one pass for a whole parameter list
# ---------------------------------------------------------------------------
#
# A list call folds every parameter's statistics from one pass over the paths;
# each parameter must come out exactly as from its own one-element call: OU is
# full support (the unshifted min and argmin are shared), example2 is not (each
# u > 0 recomputes its shifted min and argmin), and 5000 paths in batches of
# 768 leave a short last batch.

SWEEP_US = [0.0, 0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def example2_problem_k5():
    kern = ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0)
    return Problem(kern, DyadicGrid(1.5, 4.0, 5))


@pytest.fixture(params=[("ou", 1), ("ou", 2), ("example2", 1), ("example2", 2)],
                ids=lambda p: f"{p[0]}-workers{p[1]}")
def sweep_case(request, ou_problem_k5, example2_problem_k5, row_cap):
    name, workers = request.param
    problem = ou_problem_k5 if name == "ou" else example2_problem_k5
    row_cap(768)
    return problem, make_config(n_paths=5000, workers=workers)


def test_sweep_problems_cover_full_and_partial_support(ou_problem_k5, example2_problem_k5):
    assert ou_problem_k5.solution.support.size == ou_problem_k5.grid.n
    assert example2_problem_k5.solution.support.size < example2_problem_k5.grid.n


@pytest.mark.parametrize("estimator", [tail_crude, tail_is])
def test_tail_list_equals_one_element_calls(sweep_case, estimator):
    problem, cfg = sweep_case
    fused = estimator(problem, SWEEP_US, cfg)
    assert fused == [estimator(problem, [u], cfg)[0] for u in SWEEP_US]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [16384, 777])
@pytest.mark.parametrize("name", ["ou", "example2"])
def test_is_pass_counts_the_crude_hits(ou_problem_k5, example2_problem_k5, row_cap, name, rows,
                                       workers):
    # the crude hits counted in tail_is's pass use the unshifted test min X > u,
    # also where the tilt shifts IS's survival test (example2, partial support)
    problem = ou_problem_k5 if name == "ou" else example2_problem_k5
    row_cap(rows)
    cfg = make_config(n_paths=40_000, workers=workers)
    weighted = tail_is(problem, SWEEP_US, cfg)
    crude = tail_crude(problem, SWEEP_US, cfg)
    assert [e.meta["crude"] for e in weighted] == crude
    assert weighted[0].value == crude[0].value  # the u=0 identity


@pytest.mark.parametrize("mode", ["range", "zstar"])
def test_small_ball_list_equals_one_element_calls(sweep_case, mode):
    problem, cfg = sweep_case
    eps_list = [2.0, 1.0, 0.5, 0.25]
    fused = small_ball(problem, eps_list, cfg, mode=mode)
    assert fused == [small_ball(problem, [eps], cfg, mode=mode)[0] for eps in eps_list]


def test_argmin_list_equals_one_element_calls(sweep_case):
    problem, cfg = sweep_case
    fused = argmin_conditional(problem, SWEEP_US, cfg)
    for u, (hist, ess) in zip(SWEEP_US, fused):
        [(alone, alone_ess)] = argmin_conditional(problem, [u], cfg)
        assert np.array_equal(hist.weights, alone.weights), u
        assert ess == alone_ess, u


def test_mx_list_equals_one_element_calls(sweep_case):
    problem, cfg = sweep_case
    xs = [2.0, 1.0, 0.5, 1e-12]
    fused = mx_conditional(problem, xs, cfg)
    for x, hist in zip(xs[:-1], fused):
        [alone] = mx_conditional(problem, [x], cfg)
        assert np.array_equal(hist.weights, alone.weights), x
    # an x no path satisfies fails alone, with the message of its own call
    [alone] = mx_conditional(problem, xs[-1:], cfg)
    assert isinstance(fused[-1], EstimationError)
    assert str(fused[-1]) == str(alone)


def _same_laws(shared: list, alone: list) -> bool:
    """Histograms (with their ESS, if any) or failures, exactly equal."""
    def key(entry):
        if isinstance(entry, EstimationError):
            return str(entry)
        hist, *ess = entry if isinstance(entry, tuple) else (entry,)
        return hist.weights.tobytes(), ess
    return [key(e) for e in shared] == [key(e) for e in alone]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [16384, 777])
@pytest.mark.parametrize("name", ["ou", "example2"])
def test_shared_pass_equals_separate_calls(ou_problem_k5, example2_problem_k5, row_cap, name,
                                           rows, workers):
    # tail_is, the argmin law, m_x, both small balls and the diagnostic in one
    # pass share each batch's functionals and, on example2 (partial support),
    # the shifted paths of u = 0.5, 1, 2; in either order, each result is
    # exactly its estimator's alone. The diagnostic draws on stream + 1, so
    # the pass runs on stream 1 and the diagnostic alone is given stream 0.
    problem = ou_problem_k5 if name == "ou" else example2_problem_k5
    row_cap(rows)
    cfg = make_config(n_paths=20_001, workers=workers, stream=1)
    xs = [1.0, 0.5, 1e-12]   # no path has Y <= 1e-12: a failure, shared too
    eps, diagnose_us = [2.0, 1.0, 0.5], [0.5, 1.0, 2.0]
    tail = tail_is(problem, SWEEP_US, cfg)
    argmin = argmin_conditional(problem, SWEEP_US, cfg)
    mx = mx_conditional(problem, xs, cfg)
    balls = [small_ball(problem, eps, cfg, mode=mode) for mode in ("range", "zstar")]
    diagnostic = correction_diagnostic(problem, diagnose_us, replace(cfg, stream=0))
    sweeps = [tail_is_sweep(problem, SWEEP_US), argmin_sweep(problem, SWEEP_US),
              mx_sweep(problem, xs), small_ball_sweep(problem, eps, "range"),
              small_ball_sweep(problem, eps, "zstar"),
              correction_sweep(problem, diagnose_us)]
    for order in (slice(None), slice(None, None, -1)):
        (shared_tail, shared_argmin, shared_mx, *shared_balls,
         shared_diagnostic) = run_sweeps(problem, cfg, sweeps[order])[order]
        assert shared_tail == tail
        assert _same_laws(shared_argmin, argmin)
        assert _same_laws(shared_mx, mx)
        assert shared_balls == balls
        assert shared_diagnostic == diagnostic


def test_sampling_pool_is_capped_at_the_cpus(ou_problem_k2, monkeypatch, row_cap):
    # no worker count moves a result, so a pass never opens more threads than
    # the CPUs this process may use; the recorder runs the batches serially,
    # so this starts no thread at all
    opened = []

    class Recorder:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(gaussmin.estimators, "ThreadPoolExecutor", Recorder)
    row_cap(1)
    cfg = make_config(n_paths=64, workers=10**6)
    assert (tail_is(ou_problem_k2, [0.0, 1.0], cfg)
            == tail_is(ou_problem_k2, [0.0, 1.0], replace(cfg, workers=1)))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert opened == ([cpus] if cpus > 1 else [])


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_estimates_are_reproducible(ou_problem_k5):
    [a] = tail_crude(ou_problem_k5, [0.7], make_config(n_paths=30_000))
    [b] = tail_crude(ou_problem_k5, [0.7], make_config(n_paths=30_000))
    assert (a.value, a.stderr) == (b.value, b.stderr)
    [c] = tail_crude(ou_problem_k5, [0.7], make_config(n_paths=30_000, stream=3))
    assert a.value != c.value


def test_worker_count_never_changes_results(ou_problem_k5, row_cap):
    row_cap(4096)
    serial = make_config(n_paths=50_000, workers=1)
    threaded = make_config(n_paths=50_000, workers=4)
    [a] = tail_is(ou_problem_k5, [2.0], serial)
    [b] = tail_is(ou_problem_k5, [2.0], threaded)
    assert (a.value, a.stderr, a.log_value) == (b.value, b.stderr, b.log_value)


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(value=0.5, stderr=-1.0, n=10, log_value=np.log(0.5), meta={})
    with pytest.raises(ValueError):
        Estimate(value=1.5, stderr=0.0, n=10, log_value=np.log(1.5), meta={})
    with pytest.raises(ValueError):
        Estimate(value=0.5, stderr=0.0, n=10, log_value=-100.0, meta={})
    with pytest.raises(ValueError):
        Estimate(value=0.0, stderr=0.0, n=10, log_value=-100.0, meta={})
    ok = Estimate(value=0.0, stderr=0.0, n=10, log_value=-1000.0,
                  meta={"log_only": True})
    assert ok.log_value == -1000.0


# ---------------------------------------------------------------------------
# staged paths: a survivors-only pass completes only the paths that can survive
# ---------------------------------------------------------------------------


def _drawn_rows(monkeypatch) -> list:
    """The rows of each batch the passes draw from here on."""
    drawn, sample = [], gaussmin.estimators.sample

    def counted(*args):
        batch = sample(*args)
        drawn.append(len(batch.values))
        return batch

    monkeypatch.setattr(gaussmin.estimators, "sample", counted)
    return drawn


@pytest.mark.parametrize("name", ["ou", "example2"])
def test_a_survivors_only_pass_equals_a_whole_path_pass(monkeypatch, name):
    # at 129 points (the staged route) each estimator alone completes only the
    # paths alive on the support's prefix points; its result is, to the last
    # bit, the one from a whole-path pass with the same seed (a small-ball
    # sweep in the pass keeps every path), u = 0 included, and on example2's
    # partial support, where the tilt shifts the test off the support
    problem = markov_problem(name, 7)
    assert problem.route.prefix is not None
    cfg = make_config(n_paths=20_001, stream=1)
    us, xs, diagnose_us = [0.0, 0.5, 1.0, 2.0], [1.0, 0.5], [0.5, 1.0, 2.0]
    drawn = _drawn_rows(monkeypatch)
    tail = tail_is(problem, us, cfg)
    argmin = argmin_conditional(problem, us, cfg)
    mx = mx_conditional(problem, xs, cfg)
    diagnostic = correction_diagnostic(problem, diagnose_us, replace(cfg, stream=0))
    staged = sum(drawn)
    assert 0 < staged < 4 * cfg.n_paths
    drawn.clear()
    *whole, _ = run_sweeps(problem, cfg, [
        tail_is_sweep(problem, us), argmin_sweep(problem, us), mx_sweep(problem, xs),
        correction_sweep(problem, diagnose_us), small_ball_sweep(problem, [1.0])])
    assert sum(drawn) == cfg.n_paths
    assert whole[0] == tail
    assert _same_laws(whole[1], argmin)
    assert _same_laws(whole[2], mx)
    assert whole[3] == diagnostic


def test_a_whole_path_pass_solves_only_on_a_staged_route():
    # small_ball in range mode reads no solution; from 129 points the pass
    # still solves, for the support that orders each block's stage-1 table
    for k, staged in ((5, False), (8, True)):
        problem = markov_problem("ou", k)
        run_sweeps(problem, make_config(n_paths=256), [small_ball_sweep(problem, [0.5])])
        assert ("solution" in vars(problem)) == staged


def test_a_negative_u_takes_whole_paths(monkeypatch):
    # a crude hit min X > u with u < 0 can be a path below 0 at a support
    # point, so that pass completes every path, and counts its hits on them
    problem = markov_problem("example2", 7)
    cfg = make_config(n_paths=5000)
    us = [-0.5, 0.0, 1.0]
    drawn = _drawn_rows(monkeypatch)
    crude = tail_crude(problem, us, cfg)
    assert sum(drawn) == cfg.n_paths
    mins = sample(problem.route, problem.grid, cfg,
                  support=problem.solution.support).values.min(axis=1)
    assert [e.meta["hits"] for e in crude] == [int(np.count_nonzero(mins > u)) for u in us]
    drawn.clear()
    assert tail_crude(problem, us[1:], cfg) == crude[1:]
    assert 0 < sum(drawn) < cfg.n_paths
