"""Covariance kernel families: formulas, symmetry, PSD Gram matrices."""

import math

import numpy as np
import pytest

from gaussmin import (
    DomainError,
    ExplicitGram,
    ModulatedBrownian,
    NotPositiveSemidefiniteError,
    OrnsteinUhlenbeck,
    PointGrid,
    PowerExponential,
    PowerScale,
    ShiftedRootScale,
    TabulatedScale,
)
from gaussmin.gauss_sim import MarkovForm, factorize


def entry(kern, s, t):
    """The covariance R(s, t) as the single entry of a pairwise matrix."""
    return float(kern.pairwise(np.array([s]), np.array([t]))[0, 0])


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


def test_ou_evaluate_on_diagonal_and_at_unit_lag(ou):
    assert entry(ou, 0.5, 0.5) == 1.0
    assert entry(ou, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_modulated_brownian_evaluate_matches_min_over_product():
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    assert entry(kern, 1.0, 4.0) == pytest.approx(0.5, abs=1e-15)
    # min(s,t)/(g(s)g(t)) reconstruction at random points
    rng = np.random.default_rng(1)
    g = PowerScale(0.5)
    for _ in range(25):
        s, t = rng.uniform(1.0, 4.0, size=2)
        got = entry(kern, s, t) * float(g.g(s)) * float(g.g(t))
        assert got == pytest.approx(min(s, t), rel=1e-12)


def test_evaluate_is_exactly_symmetric(ou):
    rng = np.random.default_rng(2)
    kerns = [ou, PowerExponential(0.37), ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)]
    for kern in kerns:
        lo, hi = (1.0, 4.0) if isinstance(kern, ModulatedBrownian) else (-3.0, 3.0)
        for _ in range(20):
            s, t = rng.uniform(lo, hi, size=2)
            assert entry(kern, s, t) == entry(kern, t, s)


def test_stationary_kernels_depend_only_on_the_lag(ou):
    rng = np.random.default_rng(3)
    for kern in (ou, PowerExponential(0.5), PowerExponential(1.0)):
        for _ in range(20):
            s, t, shift = rng.uniform(-2.0, 2.0, size=3)
            assert entry(kern, s, t) == pytest.approx(
                entry(kern, s + shift, t + shift), rel=1e-12)


# ---------------------------------------------------------------------------
# gram matrices
# ---------------------------------------------------------------------------


def test_ou_gram_on_two_points(ou):
    sigma = ou.gram(np.array([0.0, 1.0]))
    e = math.exp(-1.0)
    assert np.allclose(sigma, [[1.0, e], [e, 1.0]], rtol=0, atol=1e-15)


def test_gram_on_singleton_grid_is_the_diagonal_variance():
    kern = ModulatedBrownian(PowerScale(0.5), 2.0, 5.0)
    sigma = kern.gram(np.array([3.0]))
    assert sigma.shape == (1, 1)
    assert sigma[0, 0] == pytest.approx(3.0 / (3.0**0.5) ** 2, rel=1e-12)


def test_power_exponential_gram_entry():
    kern = PowerExponential(0.5)
    sigma = kern.gram(np.array([0.0, 0.25, 1.0]))
    assert sigma[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert sigma[0, 2] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_gram_matrices_factorize_on_random_grids(ou):
    rng = np.random.default_rng(4)
    kerns = [ou, PowerExponential(0.5), PowerExponential(0.8),
             ModulatedBrownian(PowerScale(0.4), 0.5, 3.0)]
    for i in range(100):
        kern = kerns[i % len(kerns)]
        n = int(rng.integers(2, 65))
        lo, hi = (0.5, 3.0) if isinstance(kern, ModulatedBrownian) else (-2.0, 2.0)
        pts = np.sort(rng.uniform(lo, hi, size=n))
        pts = np.unique(pts)
        factor = factorize(kern.gram(pts))
        assert factor.jitter <= 1e-6


def test_modulated_brownian_rejects_points_outside_support():
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    with pytest.raises(DomainError):
        kern.gram(np.array([0.5, 2.0]))
    with pytest.raises(DomainError):
        kern.gram(np.array([1.0, 4.5]))


# ---------------------------------------------------------------------------
# Gauss-Markov form R(s, t) = q(s) q(t) r(min(s, t))
# ---------------------------------------------------------------------------


def _tabulated_root_scale():
    x = np.linspace(0.5, 3.0, 9)
    return TabulatedScale(x, np.sqrt(x), 0.5 / np.sqrt(x), -0.25 * x**-1.5)


@pytest.mark.parametrize("kern, lo, hi", [
    (OrnsteinUhlenbeck(), -2.0, 2.0),
    (PowerExponential(1.0), 0.0, 1.0),
    (ModulatedBrownian(PowerScale(0.5), 1.0, 4.0), 1.0, 4.0),
    (ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), 1.5, 4.0),
    (ModulatedBrownian(_tabulated_root_scale(), 0.5, 3.0), 0.5, 3.0),
], ids=["ou", "power_exponential_1", "power_scale", "shifted_root", "tabulated"])
def test_markov_form_rebuilds_the_gram_matrix(kern, lo, hi):
    rng = np.random.default_rng(11)
    for pts in (np.linspace(lo, hi, 257), np.unique(rng.uniform(lo, hi, size=40))):
        r, q = kern.markov_form(pts)
        assert np.all(np.diff(r) > 0)
        rebuilt = q[:, None] * q[None, :] * r[np.minimum.outer(np.arange(pts.size),
                                                              np.arange(pts.size))]
        gram = kern.gram(pts)
        assert np.abs(rebuilt - gram).max() <= 1e-13 * np.abs(gram).max()


def test_kernels_without_a_markov_form():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert ExplicitGram(m, np.array([0.0, 1.0])).markov_form(np.array([0.0, 1.0])) is None
    assert PowerExponential(0.5).markov_form(np.linspace(0.0, 1.0, 5)) is None


def test_markov_form_is_none_where_the_check_refuses_it():
    # r = exp(2 t) overflows at t = 400, so MarkovForm.of refuses the form
    assert OrnsteinUhlenbeck().markov_form(np.array([0.0, 400.0])) is None
    assert isinstance(OrnsteinUhlenbeck().markov_form(np.array([0.0, 1.0])), MarkovForm)


def test_markov_form_checks_the_domain():
    with pytest.raises(DomainError):
        ModulatedBrownian(PowerScale(0.5), 1.0, 4.0).markov_form(np.array([0.5, 2.0]))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_power_exponential_alpha_range():
    PowerExponential(1.0)  # boundary allowed
    with pytest.raises(ValueError):
        PowerExponential(0.0)
    with pytest.raises(ValueError):
        PowerExponential(1.5)


def test_modulated_brownian_requires_positive_left_endpoint():
    with pytest.raises(ValueError):
        ModulatedBrownian(PowerScale(0.5), 0.0, 1.0)
    with pytest.raises(ValueError):
        ModulatedBrownian(PowerScale(0.5), 2.0, 1.0)


def test_explicit_gram_validation():
    with pytest.raises(ValueError):
        ExplicitGram(np.array([[1.0, 0.2], [0.3, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(NotPositiveSemidefiniteError):
        ExplicitGram(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ExplicitGram(np.eye(2), np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize("points", [[1.0, 0.0], [0.0, 0.0], [0.0, np.nan]],
                         ids=["decreasing", "repeated", "nan"])
def test_explicit_gram_points_must_increase(points):
    # the grid lookup searches the points in order
    with pytest.raises(ValueError, match="strictly increasing"):
        ExplicitGram(np.array([[1.0, 0.5], [0.5, 1.0]]), np.array(points))


def test_explicit_gram_evaluates_on_grid_and_rejects_off_grid():
    kern = ExplicitGram(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.0, 1.0]))
    assert entry(kern, 0.0, 1.0) == 0.5
    assert entry(kern, 0.0, 0.0) == 2.0
    with pytest.raises(DomainError):
        kern.pairwise(np.array([0.5]), np.array([1.0]))
    with pytest.raises(DomainError):
        kern.gram(np.array([0.0, 0.5]))
    grid = kern.grid()
    assert isinstance(grid, PointGrid)
    assert np.array_equal(grid.points, [0.0, 1.0])


# ---------------------------------------------------------------------------
# scale functions
# ---------------------------------------------------------------------------


def test_power_scale_derivatives():
    g = PowerScale(0.5)
    x = np.array([1.0, 4.0])
    assert np.allclose(g.g(x), [1.0, 2.0], rtol=1e-15)
    assert np.allclose(g.dg(x), [0.5, 0.25], rtol=1e-12)
    assert np.allclose(g.d2g(x), [-0.25, -0.03125], rtol=1e-12)
    with pytest.raises(ValueError):
        PowerScale(1.0)


def test_shifted_root_scale_derivatives():
    g = ShiftedRootScale(1.0)
    assert float(g.g(2.0)) == 1.0
    assert float(g.dg(2.0)) == 0.5
    assert float(g.d2g(2.0)) == -0.25
    with pytest.raises(ValueError):
        ShiftedRootScale(-1.0)


def test_tabulated_scale_interpolates_and_validates():
    x = np.linspace(1.0, 2.0, 9)
    tab = TabulatedScale(x, np.sqrt(x), 0.5 / np.sqrt(x), -0.25 * x**-1.5)
    mid = np.linspace(1.0, 2.0, 33)
    assert np.allclose(tab.g(mid), np.sqrt(mid), atol=2e-4)
    assert np.allclose(tab.g(x), np.sqrt(x), rtol=0, atol=1e-15)  # exact at nodes
    with pytest.raises(ValueError):
        TabulatedScale(x, -np.sqrt(x), 0.5 / np.sqrt(x), -0.25 * x**-1.5)
    with pytest.raises(ValueError):
        TabulatedScale(x[:3], np.ones(4), np.zeros(4), np.zeros(4))


def test_constant_scale_is_flat():
    g = TabulatedScale(np.linspace(1.0, 3.0, 5), np.full(5, 2.0), np.zeros(5), np.zeros(5))
    pts = np.linspace(1.0, 3.0, 11)
    assert np.allclose(g.g(pts), 2.0, rtol=0, atol=1e-15)
    assert np.allclose(g.dg(pts), 0.0, rtol=0, atol=1e-15)
