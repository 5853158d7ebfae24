"""Closed-form optimal measures and their cross-checks."""

import numpy as np
import pytest

from gaussmin import (
    ClosedFormError,
    DomainError,
    DyadicGrid,
    ModulatedBrownian,
    OrnsteinUhlenbeck,
    PowerScale,
    ShiftedRootScale,
    TabulatedScale,
    energy,
    mean_function,
    normalize,
    ou_measure,
    ou_sigma_star_sq,
    power_law_measure,
    sigma_star_from_mu,
    solve_simplex_qp,
    tbm_measure,
)
from oracles import mu_alpha_mass_quad, ou_energy_quad

SIGMA_HALF_14 = 0.7426255848312643  # 1 / (1 + log(4)/4)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------


def test_ou_measure_unit_interval():
    nu = ou_measure(0.0, 1.0)
    assert dict(nu.atoms) == pytest.approx({0.0: 1 / 3, 1.0: 1 / 3})
    assert nu.total_mass == pytest.approx(1.0, rel=1e-9)
    assert nu.density.eval(np.array([0.2, 0.9])) == pytest.approx([1 / 3, 1 / 3])


def test_ou_measure_longer_interval():
    nu = ou_measure(0.0, 2.0)
    assert dict(nu.atoms) == pytest.approx({0.0: 0.25, 2.0: 0.25})
    assert ou_sigma_star_sq(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)


def test_ou_measure_short_interval_limit():
    # as b - a -> 0 the density mass vanishes and the atoms approach 1/2
    nu = ou_measure(1.0, 1.0 + 1e-9)
    masses = [m for _, m in nu.atoms]
    assert masses == pytest.approx([0.5, 0.5], abs=1e-9)
    assert ou_sigma_star_sq(1.0, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_ou_requires_increasing_interval():
    with pytest.raises(DomainError):
        ou_measure(1.0, 1.0)
    with pytest.raises(DomainError):
        ou_sigma_star_sq(2.0, 1.0)


def test_ou_energy_matches_quadrature_oracle():
    assert ou_sigma_star_sq(0.0, 1.0) == pytest.approx(ou_energy_quad(0.0, 1.0), abs=1e-10)
    got = energy(OrnsteinUhlenbeck(), ou_measure(0.0, 1.0))
    assert got == pytest.approx(2 / 3, abs=2e-6)


# ---------------------------------------------------------------------------
# modulated Brownian motion, case A
# ---------------------------------------------------------------------------


def test_tbm_power_half_case_a():
    # g = sqrt(t) on [1, 4]: h(1) = 1/2 >= 0, so both atoms persist and the
    # density is -g g'' = 1/(4x)
    res = tbm_measure(PowerScale(0.5), 1.0, 4.0)
    assert res.case == "A"
    assert res.a0 is None
    assert dict(res.measure.atoms) == pytest.approx({1.0: 0.5, 4.0: 0.5}, rel=1e-14)
    xs = np.array([1.0, 2.0, 3.5])
    assert res.measure.density.eval(xs) == pytest.approx(1.0 / (4.0 * xs), rel=1e-13)


def test_tbm_matches_explicit_power_family():
    for alpha in (0.3, 0.5, 0.8):
        via_scale = tbm_measure(PowerScale(alpha), 1.0, 4.0).measure
        explicit = power_law_measure(alpha, 1.0, 4.0)
        assert dict(via_scale.atoms) == pytest.approx(dict(explicit.atoms), rel=1e-12)
        xs = np.linspace(1.0, 4.0, 17)
        assert via_scale.density.eval(xs) == pytest.approx(explicit.density.eval(xs),
                                                           rel=1e-12)


def test_power_family_explicit_masses():
    mu = power_law_measure(0.3, 1.0, 2.0)
    atoms = dict(mu.atoms)
    assert atoms[1.0] == pytest.approx(0.7, rel=1e-15)
    assert atoms[2.0] == pytest.approx(0.2273574849765597, rel=1e-14)
    xs = np.array([1.5])
    assert mu.density.eval(xs) == pytest.approx(0.21 * 1.5 ** -1.4, rel=1e-14)


def test_power_family_parameter_validation():
    with pytest.raises(DomainError):
        power_law_measure(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        power_law_measure(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        power_law_measure(0.5, -1.0, 2.0)
    with pytest.raises(DomainError):
        power_law_measure(0.5, 2.0, 2.0)
    with pytest.raises(DomainError):
        tbm_measure(PowerScale(0.5), 0.0, 2.0)


def test_constant_scale_collapses_to_left_atom():
    # g = 1 gives the plain Brownian minimum kernel min(s,t); the optimum is
    # the single atom (1/a) delta_a and sigma*^2 = a
    flat = TabulatedScale(np.linspace(2.0, 5.0, 5), np.ones(5), np.zeros(5), np.zeros(5))
    res = tbm_measure(flat, 2.0, 5.0)
    assert res.case == "A"
    assert res.measure.density is None
    assert dict(res.measure.atoms) == pytest.approx({2.0: 0.5}, rel=1e-14)
    kern = ModulatedBrownian(flat, 2.0, 5.0)
    assert sigma_star_from_mu(kern, res.measure) == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# modulated Brownian motion, case B
# ---------------------------------------------------------------------------


def test_tbm_shifted_root_case_b():
    # g = sqrt(t - 1) on [1.5, 4]: h(t) = (t - 2) / (2 sqrt(t - 1)) crosses
    # zero at a0 = 2, the left atom vanishes, density 1/(4(x-1)) on [2, 4]
    g = ShiftedRootScale(1.0)
    res = tbm_measure(g, 1.5, 4.0)
    assert res.case == "B"
    assert res.a0 == pytest.approx(2.0, abs=1e-10)
    assert dict(res.measure.atoms) == pytest.approx({4.0: 0.5}, rel=1e-12)
    assert res.measure.density.lo == pytest.approx(2.0, abs=1e-10)
    assert res.measure.density.hi == 4.0
    xs = np.array([2.5, 3.0, 4.0])
    assert res.measure.density.eval(xs) == pytest.approx(1.0 / (4.0 * (xs - 1.0)),
                                                         rel=1e-12)
    h = lambda x: float(g.g(x)) - x * float(g.dg(x))
    assert abs(h(res.a0)) <= 1e-10


def test_case_b_mean_function_exceeds_one_left_of_a0():
    g = ShiftedRootScale(1.0)
    res = tbm_measure(g, 1.5, 4.0)
    kern = ModulatedBrownian(g, 1.5, 4.0)
    ts = np.linspace(1.5, 2.0 - 1e-9, 64)
    assert np.all(mean_function(kern, res.measure, ts) >= 1.0 - 1e-6)


def test_case_dispatch_boundary():
    # the boundary case h(a) = 0 must land in case A with a zero left atom
    res = tbm_measure(ShiftedRootScale(1.0), 2.0, 4.0)
    assert res.case == "A"
    assert dict(res.measure.atoms) == pytest.approx({4.0: 0.5}, rel=1e-12)


# ---------------------------------------------------------------------------
# optimal energy from the unnormalized measure
# ---------------------------------------------------------------------------


def test_sigma_star_power_half_on_1_4():
    mu = power_law_measure(0.5, 1.0, 4.0)
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    got = sigma_star_from_mu(kern, mu)
    assert got == pytest.approx(SIGMA_HALF_14, rel=1e-6)
    assert got == pytest.approx(1.0 / mu_alpha_mass_quad(0.5, 1.0, 4.0), rel=1e-6)


def test_sigma_star_nonnegative_everywhere():
    for alpha in (0.3, 0.5, 0.7):
        mu = power_law_measure(alpha, 1.0, 4.0)
        assert all(m >= 0 for _, m in mu.atoms)
        xs = np.linspace(1.0, 4.0, 101)
        assert np.all(mu.density.eval(xs) >= 0)


def test_sigma_star_rejects_non_optimal_measure():
    # the measure for alpha = 0.3 has mean function far from 1 under the
    # alpha = 0.7 kernel
    mu = power_law_measure(0.3, 1.0, 4.0)
    kern = ModulatedBrownian(PowerScale(0.7), 1.0, 4.0)
    with pytest.raises(ClosedFormError):
        sigma_star_from_mu(kern, mu)


def test_dyadic_solver_approaches_closed_form():
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    grid = DyadicGrid(1.0, 4.0, 6)
    sol = solve_simplex_qp(kern.gram(grid), grid=grid)
    assert SIGMA_HALF_14 - 1e-9 <= sol.sigma_star_sq <= SIGMA_HALF_14 + 0.01


def test_energy_of_normalized_case_b_measure():
    g = ShiftedRootScale(1.0)
    res = tbm_measure(g, 1.5, 4.0)
    kern = ModulatedBrownian(g, 1.5, 4.0)
    value = sigma_star_from_mu(kern, res.measure)
    assert value == pytest.approx(energy(kern, normalize(res.measure)), rel=1e-5)


# ---------------------------------------------------------------------------
# hypothesis failures
# ---------------------------------------------------------------------------


def test_tbm_rejects_interval_with_no_left_support_point():
    # g = sqrt(t - 3) on [3.5, 5]: h(t) = (t - 6)/(2 sqrt(t - 3)) < 0 on the
    # whole interval, so no optimal left support point exists
    with pytest.raises(ClosedFormError):
        tbm_measure(ShiftedRootScale(3.0), 3.5, 5.0)


def test_tbm_rejects_convex_scale():
    x = np.linspace(1.0, 2.0, 33)
    g = TabulatedScale(x, x ** 2, 2.0 * x, np.full_like(x, 2.0))
    with pytest.raises(ClosedFormError):
        tbm_measure(g, 1.0, 2.0)


def test_tbm_rejects_nonpositive_scale():
    from gaussmin import ScaleFunction

    class DippingScale(ScaleFunction):
        def g(self, x):
            return np.asarray(x, dtype=float) - 1.5

        def dg(self, x):
            return np.ones_like(np.asarray(x, dtype=float))

        def d2g(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(ClosedFormError):
        tbm_measure(DippingScale(), 1.0, 2.0)
    # the tabulated representation refuses such data outright
    x = np.linspace(1.0, 2.0, 33)
    with pytest.raises(ValueError):
        TabulatedScale(x, x - 1.5, np.ones_like(x), np.zeros_like(x))
