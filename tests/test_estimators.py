"""Tail, small-ball and conditional-argmin estimators."""

from dataclasses import replace

import numpy as np
import pytest

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
from conftest import make_config
from oracles import (binomial_bin_stderr, orthant_closed, planted_logp,
                     weighted_bin_stderr)


def _explicit(sigma) -> Problem:
    kern = ExplicitGram.from_matrix(np.asarray(sigma, dtype=float))
    return Problem(kern, kern.grid())


def _correlated_pair(rho=0.5) -> Problem:
    return _explicit([[1.0, rho], [rho, 1.0]])


# ---------------------------------------------------------------------------
# crude tail estimates against orthant probabilities
# ---------------------------------------------------------------------------


def test_crude_tail_singleton():
    est = tail_crude(_explicit([[1.0]]), 0.0, make_config())
    assert abs(est.value - 0.5) <= 4 * est.stderr
    assert est.n == 100_000
    assert est.meta["method"] == "tail_crude"


def test_crude_tail_independent_pair():
    est = tail_crude(_correlated_pair(0.0), 0.0, make_config())
    assert abs(est.value - 0.25) <= 4 * est.stderr


def test_crude_tail_correlated_pair_matches_orthant_formula():
    est = tail_crude(_correlated_pair(0.5), 0.0, make_config(n_paths=200_000))
    assert abs(est.value - orthant_closed(0.5)) <= 4 * est.stderr
    assert orthant_closed(0.5) == pytest.approx(1 / 3, abs=1e-15)


def test_crude_tail_decreases_in_u_with_a_shared_seed(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    values = [tail_crude(ou_problem_k5, u, cfg).value for u in (0.0, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# change-of-measure tail estimates
# ---------------------------------------------------------------------------


def test_is_tail_equals_crude_at_u_zero(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    crude = tail_crude(ou_problem_k5, 0.0, cfg)
    weighted = tail_is(ou_problem_k5, 0.0, cfg)
    assert weighted.value == crude.value  # bit-identical survivor count


def test_is_tail_agrees_with_crude_at_moderate_u(ou):
    problem = Problem(ou, DyadicGrid(0.0, 1.0, 6))
    crude = tail_crude(problem, 1.0, make_config(n_paths=100_000))
    weighted = tail_is(problem, 1.0, make_config(n_paths=100_000, stream=5))
    combined = np.hypot(crude.stderr, weighted.stderr)
    assert abs(crude.value - weighted.value) <= 3 * combined


def test_is_tail_agrees_with_crude_without_full_support():
    # example2 (case B): nu* leaves grid points uncharged, where m_j > sigma*^2,
    # so survival is tested on X + u (m / sigma*^2 - 1), not on X
    kern = ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0)
    problem = Problem(kern, DyadicGrid(1.5, 4.0, 5))
    assert problem.solution.support.size < problem.grid.n
    for u in (1.0, 2.0):
        crude = tail_crude(problem, u, make_config(n_paths=2_000_000, workers=2))
        weighted = tail_is(problem, u, make_config(n_paths=2_000_000, stream=1, workers=2))
        combined = np.hypot(crude.stderr, weighted.stderr)
        assert abs(crude.value - weighted.value) <= 3 * combined, u


def test_is_tail_reaches_where_crude_sees_nothing(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    crude = tail_crude(ou_problem_k5, 6.0, cfg)
    weighted = tail_is(ou_problem_k5, 6.0, cfg)
    assert crude.meta["zero_hits"]
    assert weighted.value > 0
    assert np.isfinite(weighted.log_value)
    assert weighted.meta["rel_stderr"] < 0.2


def test_is_tail_log_only_regime():
    # deep tail: value underflows but the log estimate stays finite
    deep = tail_is(_explicit([[1.0]]), 45.0, make_config(n_paths=20_000))
    assert deep.value == 0.0
    assert deep.meta["log_only"]
    assert np.isfinite(deep.log_value)
    assert deep.log_value < -645


# ---------------------------------------------------------------------------
# small-ball probabilities
# ---------------------------------------------------------------------------


def test_small_ball_trivial_cases(ou_problem_k2):
    assert small_ball(ou_problem_k2, 1e6, make_config(n_paths=1000)).value == 1.0
    assert small_ball(_explicit([[1.0]]), 1e-8, make_config(n_paths=1000)).value == 1.0


def test_small_ball_decreases_with_eps_on_a_shared_seed(ou_problem_k5):
    cfg = make_config(n_paths=50_000)
    vals = [small_ball(ou_problem_k5, eps, cfg).value for eps in (1.0, 0.8, 0.6)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_small_ball_zstar_mode(ou_problem_k5):
    est = small_ball(ou_problem_k5, 0.5, make_config(n_paths=50_000), mode="zstar")
    assert 0 < est.value < 1
    assert est.meta["method"] == "small_ball_zstar"


def test_small_ball_argument_validation(ou_problem_k2):
    with pytest.raises(ValueError):
        small_ball(ou_problem_k2, 0.0, make_config(n_paths=100))
    with pytest.raises(ValueError):
        small_ball(ou_problem_k2, 0.5, make_config(n_paths=100), mode="volume")


# ---------------------------------------------------------------------------
# correction-exponent fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_a_planted_exponent():
    sigma_sq = 2 / 3
    u = np.array([2.0, 3.0, 4.0, 5.0, 8.0])
    log_p = np.array([planted_logp(x, sigma_sq, gamma=2 / 3, scale=1.3) for x in u])
    slope, intercept, halfwidth, used = fit_correction_exponent(u, log_p, sigma_sq)
    assert slope == pytest.approx(2 / 3, abs=1e-6)
    assert intercept == pytest.approx(np.log(1.3), abs=1e-6)
    assert used.all()
    assert halfwidth == pytest.approx(0.0, abs=1e-6)


def test_fit_excludes_nonnegative_deviations():
    sigma_sq = 0.5
    u = np.array([1.0, 2.0, 3.0, 4.0])
    log_p = np.array([planted_logp(x, sigma_sq) for x in u])
    log_p[1] = -u[1] ** 2 / (2 * sigma_sq) + 0.5  # D(u_2) = +0.5
    slope, _, _, used = fit_correction_exponent(u, log_p, sigma_sq)
    assert list(used) == [True, False, True, True]
    assert slope == pytest.approx(2 / 3, abs=1e-6)


def test_fit_reports_uncertainty_for_noisy_points():
    sigma_sq = 0.5
    u = np.array([1.0, 2.0, 4.0, 8.0])
    noise = np.array([0.0, 1e-2, -1e-2, 5e-3])
    log_p = np.array([planted_logp(x, sigma_sq) for x in u]) + noise
    _, _, halfwidth, _ = fit_correction_exponent(u, log_p, sigma_sq)
    assert halfwidth > 0


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
    diag = correction_diagnostic(problem, [1.0, 2.0, 3.0], cfg, beta=1.0)
    assert len(diag.rows) == 3
    assert all(d < 0 for _, _, d in diag.rows)
    assert 0 < diag.exponent < 1.2
    assert diag.lower_bound_exponent == pytest.approx(0.5)
    # each u runs on its own substream, reproducibly
    again = tail_is(problem, 2.0, replace(cfg, stream=cfg.stream + 2))
    assert diag.estimates[1].value == again.value


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
    hist, ess = argmin_conditional(_explicit(np.eye(2)), 0.0, make_config())
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
    weighted, ess = argmin_conditional(ou_problem_k2, u, cfg)
    assert ess >= 100

    # manual replication of the weighting, for per-bin standard errors
    batch = sample(ou_problem_k2.factor, grid, cfg)
    fn = functionals(batch, sol.measure)
    keep = fn.min_value > 0
    w = np.exp(-u * fn.y[keep] / sol.sigma_star_sq)
    idx = fn.argmin_index[keep]
    manual = np.bincount(idx, weights=w, minlength=grid.n)
    assert np.allclose(weighted.weights, manual / manual.sum(), atol=1e-12)
    se_w = weighted_bin_stderr(w, idx, grid.n)

    # independent direct-conditioning sample on another stream
    direct_cfg = make_config(n_paths=400_000, stream=9)
    batch2 = sample(ou_problem_k2.factor, grid, direct_cfg)
    fn2 = functionals(batch2, sol.measure)
    hits = fn2.min_value > u
    counts = np.bincount(fn2.argmin_index[hits], minlength=grid.n)
    direct = counts / counts.sum()
    se_d = binomial_bin_stderr(counts)
    gap = np.abs(weighted.weights - direct)
    assert np.all(gap <= 3 * np.hypot(se_w, se_d) + 1e-12)


def test_argmin_law_rejects_negative_u(ou_problem_k2):
    with pytest.raises(EstimationError):
        argmin_conditional(ou_problem_k2, -0.5, make_config(n_paths=1000))


def test_mx_law_with_huge_threshold_equals_unconditional_argmin(ou_problem_k2):
    cfg = make_config(n_paths=50_000)
    via_u, _ = argmin_conditional(ou_problem_k2, 0.0, cfg)
    via_x = mx_conditional(ou_problem_k2, 1e6, cfg)
    assert np.array_equal(via_u.weights, via_x.weights)


def test_mx_law_two_iid_points():
    hist = mx_conditional(_explicit(np.eye(2)), 0.5, make_config())
    assert abs(hist.weights[0] - 0.5) <= 0.05


def test_mx_law_validation(ou_problem_k2):
    with pytest.raises(EstimationError):
        mx_conditional(ou_problem_k2, 0.0, make_config(n_paths=100))
    # min > 0 forces Y > 0, so an extreme threshold leaves no paths
    with pytest.raises(EstimationError):
        mx_conditional(ou_problem_k2, 1e-12, make_config(n_paths=5000))


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_estimates_are_reproducible(ou_problem_k5):
    a = tail_crude(ou_problem_k5, 0.7, make_config(n_paths=30_000))
    b = tail_crude(ou_problem_k5, 0.7, make_config(n_paths=30_000))
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = tail_crude(ou_problem_k5, 0.7, make_config(n_paths=30_000, stream=3))
    assert a.value != c.value


def test_worker_count_never_changes_results(ou_problem_k5):
    serial = make_config(n_paths=50_000, batch_size=4096, workers=1)
    threaded = make_config(n_paths=50_000, batch_size=4096, workers=4)
    a = tail_is(ou_problem_k5, 2.0, serial)
    b = tail_is(ou_problem_k5, 2.0, threaded)
    assert (a.value, a.stderr, a.log_value) == (b.value, b.stderr, b.log_value)


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(value=0.5, stderr=-1.0, n=10, seed=0, log_value=np.log(0.5), meta={})
    with pytest.raises(ValueError):
        Estimate(value=1.5, stderr=0.0, n=10, seed=0, log_value=np.log(1.5), meta={})
    with pytest.raises(ValueError):
        Estimate(value=0.5, stderr=0.0, n=10, seed=0, log_value=-100.0, meta={})
    with pytest.raises(ValueError):
        Estimate(value=0.0, stderr=0.0, n=10, seed=0, log_value=-100.0, meta={})
    ok = Estimate(value=0.0, stderr=0.0, n=10, seed=0, log_value=-1000.0,
                  meta={"log_only": True})
    assert ok.log_value == -1000.0
