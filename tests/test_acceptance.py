"""Acceptance gate: ten end-to-end criteria at fixed tolerances.

Each test prints one "criterion N: PASS|FAIL - detail" line (visible under
pytest -s) before asserting, so the full scorecard survives a failing run.
All Monte Carlo checks run at a frozen seed; every quantity asserted here is
deterministic, so a pass is a property of the code, not of luck.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gaussmin import (
    DyadicGrid,
    ExplicitGram,
    ModulatedBrownian,
    OrnsteinUhlenbeck,
    PowerExponential,
    PowerScale,
    Problem,
    SamplerConfig,
    ShiftedRootScale,
    correction_diagnostic,
    argmin_conditional,
    discretize,
    energy,
    fit_correction_exponent,
    functionals,
    mean_function,
    mx_conditional,
    normalize,
    ou_measure,
    power_law_measure,
    refine,
    sample,
    solve_simplex_qp,
    tail_crude,
    tail_is,
    tbm_measure,
    tv_distance,
)
from gaussmin.cli import main as cli_main
from conftest import random_psd
from oracles import (binomial_bin_stderr, mesh_search, orthant_closed,
                     orthant_dblquad, planted_logp, support_enumeration,
                     weighted_bin_stderr)

SEED = 505
OU = OrnsteinUhlenbeck()


def scorecard(n: int, passed: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def config(n_paths: int, stream: int = 0, **kw) -> SamplerConfig:
    return SamplerConfig(seed=SEED, n_paths=n_paths, stream=stream, **kw)


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_vs_solver_at_k8():
    t0 = time.perf_counter()
    grid = DyadicGrid(0.0, 1.0, 8)
    sol = solve_simplex_qp(OU.gram(grid), grid=grid)
    reference = discretize(ou_measure(0.0, 1.0), grid)
    tv = tv_distance(sol.measure, reference)
    w = sol.measure.weights
    elapsed = time.perf_counter() - t0

    sigma_ok = 2 / 3 <= sol.sigma_star_sq <= 2 / 3 + 5e-3
    endpoints_ok = abs(w[0] - 1 / 3) <= 0.02 and abs(w[-1] - 1 / 3) <= 0.02
    tv_ok = tv <= 0.05
    time_ok = elapsed < 5.0
    line = scorecard(1, sigma_ok and endpoints_ok and tv_ok and time_ok,
                     f"sigma*^2_8={sol.sigma_star_sq:.6f} (limit {2/3:.6f}), "
                     f"endpoints=({w[0]:.4f}, {w[-1]:.4f}), tv={tv:.4f}, "
                     f"{elapsed:.2f}s")
    assert sigma_ok, line
    assert endpoints_ok, line
    assert tv_ok, line
    assert time_ok, line


def test_criterion_02_certificates_and_mesh_oracle():
    kernels = [(OU, 0.0, 1.0), (PowerExponential(0.5), 0.0, 1.0),
               (PowerExponential(1.0), 0.0, 1.0),
               (ModulatedBrownian(PowerScale(0.5), 1.0, 4.0), 1.0, 4.0)]
    instances = []
    for kern, a, b in kernels:
        for k in (0, 1, 2, 5):
            grid = DyadicGrid(a, b, k)
            instances.append(kern.gram(grid))
    rng = np.random.default_rng(7)
    for size in rng.integers(2, 33, size=20):
        instances.append(random_psd(rng, int(size), ridge=rng.uniform(0.02, 0.5)))

    worst_slack = np.inf
    worst_support = 0.0
    worst_mesh = 0.0
    worst_enum = 0.0
    meshed = 0
    for sigma in instances:
        sol = solve_simplex_qp(sigma)
        s2 = sol.sigma_star_sq
        worst_slack = min(worst_slack, float(sol.certificate.min()) / s2)
        dev = float(np.abs(sol.certificate[sol.support] - s2).max()) / s2
        worst_support = max(worst_support, dev)
        if sigma.shape[0] <= 6:
            meshed += 1
            mesh_val, _ = mesh_search(sigma, mesh=1e-3)
            enum_val, _ = support_enumeration(sigma)
            worst_mesh = max(worst_mesh, abs(s2 - mesh_val))
            worst_enum = max(worst_enum, abs(s2 - enum_val))

    slack_ok = worst_slack >= 1 - 1e-6
    support_ok = worst_support <= 1e-6
    mesh_ok = worst_mesh <= 1e-5
    line = scorecard(2, slack_ok and support_ok and mesh_ok,
                     f"{len(instances)} instances: min slack ratio {worst_slack:.9f}, "
                     f"max support dev {worst_support:.2e}; mesh oracle on {meshed} "
                     f"small grids: max |diff| {worst_mesh:.2e} "
                     f"(exact enumeration {worst_enum:.2e})")
    assert slack_ok, line
    assert support_ok, line
    assert mesh_ok, line


def test_criterion_03_monotone_refinement():
    diffs = {}
    for name, kern in (("ou", OU), ("pe_half", PowerExponential(0.5))):
        trace = refine(kern, (0.0, 1.0), 2, 8, stop_tol=1e-14)
        vals = trace.sigma_values
        assert len(vals) == 7, f"expected levels 2..8, got {len(vals)}"
        diffs[name] = float(np.diff(vals).max())
    ok = all(d <= 1e-10 for d in diffs.values())
    line = scorecard(3, ok, "max increase across k=2..8: "
                     + ", ".join(f"{n}={d:.2e}" for n, d in diffs.items())
                     + " (slack 1e-10)")
    assert ok, line


def test_criterion_04_unit_mean_identity_and_case_b():
    ts = np.linspace(1.0, 4.0, 512)
    worst_mean = 0.0
    worst_energy = 0.0
    for alpha in (0.3, 0.5, 0.7):
        mu = power_law_measure(alpha, 1.0, 4.0)
        kern = ModulatedBrownian(PowerScale(alpha), 1.0, 4.0)
        worst_mean = max(worst_mean,
                         float(np.abs(mean_function(kern, mu, ts) - 1.0).max()))
        worst_energy = max(worst_energy,
                           abs(energy(kern, normalize(mu)) - 1.0 / mu.total_mass))

    g = ShiftedRootScale(1.0)
    res = tbm_measure(g, 1.5, 4.0)
    a0_err = abs(res.a0 - 2.0)
    left = np.linspace(1.5, 2.0, 512, endpoint=False)
    kern_b = ModulatedBrownian(g, 1.5, 4.0)
    left_min = float(mean_function(kern_b, res.measure, left).min())

    mean_ok = worst_mean <= 1e-5
    energy_ok = worst_energy <= 1e-5
    a0_ok = a0_err <= 1e-10
    left_ok = left_min >= 1 - 1e-6
    line = scorecard(4, mean_ok and energy_ok and a0_ok and left_ok,
                     f"max |mean-1|={worst_mean:.2e}, max energy dev={worst_energy:.2e} "
                     f"over alpha in (0.3, 0.5, 0.7); case B a0 err={a0_err:.2e}, "
                     f"min mean on [1.5,2)={left_min:.8f}")
    assert mean_ok, line
    assert energy_ok, line
    assert a0_ok, line
    assert left_ok, line


def test_criterion_05_orthant_oracle():
    t0 = time.perf_counter()
    kern = ExplicitGram(np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([0.0, 1.0]))
    [est] = tail_crude(Problem(kern, kern.grid()), [0.0], config(1_000_000))
    elapsed = time.perf_counter() - t0

    exact = orthant_closed(0.5)
    quad = orthant_dblquad(0.5)
    oracle_ok = abs(exact - 1 / 3) <= 1e-12 and abs(quad - exact) <= 1e-7
    dev = abs(est.value - exact) / est.stderr
    mc_ok = dev <= 3.0
    time_ok = elapsed < 10.0
    line = scorecard(5, oracle_ok and mc_ok and time_ok,
                     f"p_hat={est.value:.6f} vs 1/3, {dev:.2f} stderrs "
                     f"(double integral {quad:.9f}), {elapsed:.2f}s")
    assert oracle_ok, line
    assert mc_ok, line
    assert time_ok, line


def test_criterion_06_change_of_measure_bridge():
    problem = Problem(OU, DyadicGrid(0.0, 1.0, 6))
    [crude1] = tail_crude(problem, [1.0], config(100_000))
    [is1] = tail_is(problem, [1.0], config(100_000, stream=1))
    combined = float(np.hypot(crude1.stderr, is1.stderr))
    bridge_dev = abs(crude1.value - is1.value) / combined

    [crude4] = tail_crude(problem, [4.0], config(1_000_000))
    [is4] = tail_is(problem, [4.0], config(1_000_000))

    bridge_ok = bridge_dev <= 3.0
    zero_ok = crude4.meta["zero_hits"]
    rel_ok = is4.meta["rel_stderr"] < 0.05
    line = scorecard(6, bridge_ok and zero_ok and rel_ok,
                     f"u=1: |crude-is|={bridge_dev:.2f} combined stderrs; u=4: crude "
                     f"hits={crude4.meta['hits']}, is rel stderr="
                     f"{is4.meta['rel_stderr']:.4f} with p_hat={is4.value:.3e}")
    assert bridge_ok, line
    assert zero_ok, line
    assert rel_ok, line


def test_criterion_07_correction_exponent():
    u_list = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    sigma_sq = 0.85
    planted = [planted_logp(u, sigma_sq, gamma=2 / 3) for u in u_list]
    slope, _, _ = fit_correction_exponent(u_list, planted, sigma_sq)
    planted_ok = abs(slope - 2 / 3) <= 1e-6

    t0 = time.perf_counter()
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 2.0)
    problem = Problem(kern, DyadicGrid(1.0, 2.0, 6))
    diag = correction_diagnostic(problem, u_list, config(1_000_000))
    elapsed = time.perf_counter() - t0

    d_ok = all(d < 0 for _, _, d in diag.rows) and not diag.excluded
    band_ok = 0.45 <= diag.exponent <= 0.95
    time_ok = elapsed < 600.0
    line = scorecard(7, planted_ok and d_ok and band_ok and time_ok,
                     f"planted fit={slope:.8f}; measured exponent={diag.exponent:.4f} "
                     f"in [0.45, 0.95], all D<0={d_ok}, {elapsed:.1f}s")
    assert planted_ok, line
    assert d_ok, line
    assert band_ok, line
    assert time_ok, line


def test_criterion_08_conditional_argmin_law():
    # (a) oracle equivalence at k=2, u=1: the weighted histogram against an
    # independent direct-conditioning run, per-bin
    problem2 = Problem(OU, DyadicGrid(0.0, 1.0, 2))
    grid2, sol2, route2 = problem2.grid, problem2.solution, problem2.route
    cfg = config(1_000_000)
    [(hist, _)] = argmin_conditional(problem2, [1.0], cfg)

    w_parts, i_parts = [], []
    for start in range(0, cfg.n_paths, 250_000):
        # the estimator's own paths: a staged path's stage-1 row follows the support
        batch = sample(route2, grid2, cfg, start=start, count=250_000, support=sol2.support)
        fn = functionals(batch, sol2.measure)
        keep = fn.min_value > 0
        w_parts.append(np.exp(-fn.y[keep] / sol2.sigma_star_sq))
        i_parts.append(fn.argmin_index[keep])
    w = np.concatenate(w_parts)
    idx = np.concatenate(i_parts)
    se_w = weighted_bin_stderr(w, idx, grid2.n)

    direct_cfg = config(1_000_000, stream=7)
    counts = np.zeros(grid2.n)
    for start in range(0, direct_cfg.n_paths, 250_000):
        batch = sample(route2, grid2, direct_cfg, start=start, count=250_000)
        fn = functionals(batch, sol2.measure)
        hits = fn.min_value > 1.0
        counts += np.bincount(fn.argmin_index[hits], minlength=grid2.n)
    direct = counts / counts.sum()
    se_d = binomial_bin_stderr(counts)
    per_bin = np.abs(hist.weights - direct) / np.hypot(se_w, se_d)
    a_ok = bool(np.all(per_bin <= 3.0))

    # (b) trend at k=5 over u = 1, 2, 3
    problem5 = Problem(OU, DyadicGrid(0.0, 1.0, 5))
    tvs, esses = [], []
    for h, ess in argmin_conditional(problem5, [1.0, 2.0, 3.0], cfg):
        tvs.append(tv_distance(h, problem5.solution.measure))
        esses.append(ess)
    monotone_ok = tvs[0] >= tvs[1] >= tvs[2]
    ess_ok = esses[-1] >= 100
    limit_ok = tvs[-1] <= 0.1

    line = scorecard(8, a_ok and monotone_ok and ess_ok and limit_ok,
                     f"(a) max per-bin dev {per_bin.max():.2f} combined stderrs; "
                     f"(b) tv(u=1,2,3)=({tvs[0]:.4f}, {tvs[1]:.4f}, {tvs[2]:.4f}), "
                     f"nonincreasing={monotone_ok}, ess(u=3)={esses[-1]:.0f}, "
                     f"tv(u=3)<=0.1 is {limit_ok}")
    assert a_ok, line
    assert monotone_ok, line
    assert ess_ok, line
    # the weighted histogram converges to the optimal measure without a
    # stated rate; at u=3 the measured tv sits near 0.4, far above this
    # bound, and pushing u higher only collapses the effective sample size.
    # The bound is asserted as written; the blocking analysis lives in the
    # project decision ledger.
    assert limit_ok, line


def test_criterion_09_mx_limit_trend():
    problem = Problem(OU, DyadicGrid(0.0, 1.0, 4))
    cfg = config(10_000_000)
    tvs = [tv_distance(hist, problem.solution.measure)
           for hist in mx_conditional(problem, [1.0, 0.5, 0.25], cfg)]
    ok = tvs[0] >= tvs[1] >= tvs[2]
    line = scorecard(9, ok, f"tv(x=1.0, 0.5, 0.25)=({tvs[0]:.4f}, {tvs[1]:.4f}, "
                     f"{tvs[2]:.4f}), nonincreasing={ok}")
    assert ok, line


def test_criterion_10_path_invariants_and_byte_identity(tmp_path):
    problem = Problem(OU, DyadicGrid(0.0, 1.0, 5))
    cfg = config(1_000_000)

    # every path: min_i X_i <= Y (Y is a convex combination of the X_i)
    worst = -np.inf
    for start in range(0, cfg.n_paths, 250_000):
        batch = sample(problem.route, problem.grid, cfg, start=start, count=250_000)
        fn = functionals(batch, problem.solution.measure)
        worst = max(worst, float((fn.min_value - fn.y).max()))
    zstar_ok = worst <= 1e-12

    # shared seed: the hit sets {min > u} are nested, so the estimates are
    # exactly nonincreasing in u
    values = [e.value for e in tail_crude(problem, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], cfg)]
    monotone_ok = all(a >= b for a, b in zip(values, values[1:]))

    # byte-identical outputs for 1 vs 8 worker threads
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"kernel": {"type": "ou"}, "interval": [0.0, 1.0], '
                        '"k": 5, "u_list": [1.0], "n_paths": 1000000, '
                        f'"seed": {SEED}}}')
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(["tail", "--config", str(cfg_path), "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    bytes_ok = outs[1] == outs[8]

    line = scorecard(10, zstar_ok and monotone_ok and bytes_ok,
                     f"max(min X - Y)={worst:.2e} over 10^6 paths; shared-seed tail "
                     f"nonincreasing={monotone_ok}; threads 1 vs 8 byte-identical="
                     f"{bytes_ok} across {len(outs[1])} files")
    assert zstar_ok, line
    assert monotone_ok, line
    assert bytes_ok, line
