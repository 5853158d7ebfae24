"""Mixed and grid measures: quadrature, discretization, distances."""

import math

import numpy as np
import pytest

from gaussmin import (
    DyadicGrid,
    ExplicitGram,
    GridMeasure,
    GridMismatchError,
    MixedMeasure,
    PointGrid,
    PowerScale,
    ModulatedBrownian,
    OrnsteinUhlenbeck,
    TabulatedScale,
    discretize,
    energy,
    mean_function,
    normalize,
    ou_measure,
    power_law_measure,
    solve_simplex_qp,
    tbm_measure,
    tv_distance,
)
from gaussmin.measure import DensityPart, UniformForm
from oracles import mu_alpha_mass_quad, ou_energy_quad, wasserstein1

MU_HALF_MASS = 1.0 + math.log(4.0) / 4.0  # exact mass of the alpha=1/2 family on [1,4]


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------


def test_mixed_measure_drops_zero_mass_atoms_and_caches_mass():
    m = MixedMeasure.from_atoms((0.0, 1.0), [(0.0, 2.0), (1.0, 0.0)])
    assert m.atoms == [(0.0, 2.0)]
    assert m.total_mass == pytest.approx(2.0, rel=1e-15)


def test_mixed_measure_rejects_negative_atoms_and_density():
    with pytest.raises(ValueError):
        MixedMeasure.from_atoms((0.0, 1.0), [(0.5, -1.0)])
    with pytest.raises(ValueError):
        MixedMeasure.from_atoms(
            (0.0, 1.0), [(0.0, 1.0)],
            DensityPart(0.0, 1.0, UniformForm(-0.5)))
    with pytest.raises(ValueError):
        MixedMeasure.from_atoms((0.0, 1.0), [])  # zero total mass


def test_normalize_single_atom():
    m = normalize(MixedMeasure.from_atoms((0.0, 1.0), [(0.0, 2.0)]))
    assert m.atoms == [(0.0, 1.0)]
    assert m.total_mass == pytest.approx(1.0, rel=1e-15)


def test_normalize_boundary_atoms_plus_uniform_density():
    nu = ou_measure(0.0, 1.0)
    assert nu.total_mass == pytest.approx(1.0, rel=1e-12)
    assert [m for _, m in nu.atoms] == pytest.approx([1 / 3, 1 / 3], rel=1e-12)
    dens_mass = nu.total_mass - sum(m for _, m in nu.atoms)
    assert dens_mass == pytest.approx(1 / 3, rel=1e-9)


def test_normalize_power_family_measure():
    mu = power_law_measure(0.5, 1.0, 4.0)
    # cached mass is a 4096-panel midpoint quadrature; truncation ~5e-9
    assert mu.total_mass == pytest.approx(MU_HALF_MASS, rel=1e-7)
    assert mu.total_mass == pytest.approx(mu_alpha_mass_quad(0.5, 1.0, 4.0), rel=1e-7)
    nu = normalize(mu)
    assert nu.total_mass == pytest.approx(1.0, rel=1e-12)
    assert [m for _, m in nu.atoms] == pytest.approx(
        [0.5 / MU_HALF_MASS, 0.5 / MU_HALF_MASS], rel=1e-7)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_of_single_atom_is_diagonal_variance(ou):
    m = MixedMeasure.from_atoms((0.0, 1.0), [(0.3, 1.0)])
    assert energy(ou, m) == pytest.approx(1.0, rel=1e-15)
    # unit scale: R(2,2) = min(2,2)/(1*1) = 2
    flat = TabulatedScale(np.linspace(2.0, 5.0, 5), np.ones(5), np.zeros(5), np.zeros(5))
    kern = ModulatedBrownian(flat, 2.0, 5.0)
    m2 = MixedMeasure.from_atoms((2.0, 5.0), [(2.0, 1.0)])
    assert energy(kern, m2) == pytest.approx(2.0, rel=1e-12)


def test_energy_of_boundary_atom_uniform_mix(ou):
    # independent adaptive-quadrature oracle agrees with the analytic 2/3
    assert ou_energy_quad(0.0, 1.0) == pytest.approx(2 / 3, abs=1e-10)
    assert energy(ou, ou_measure(0.0, 1.0)) == pytest.approx(2 / 3, abs=2e-6)


def test_energy_of_grid_measure_is_quadratic_form():
    kern = ExplicitGram(np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([0.0, 1.0]))
    gm = GridMeasure(kern.grid(), np.array([0.5, 0.5]))
    assert energy(kern, gm) == pytest.approx(0.75, rel=1e-15)


def test_energy_dominates_optimum_for_random_grid_measures(ou, ou_grid_k5):
    sigma = ou.gram(ou_grid_k5)
    sol = solve_simplex_qp(sigma, grid=ou_grid_k5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.dirichlet(np.ones(ou_grid_k5.n))
        gm = GridMeasure(ou_grid_k5, w)
        assert energy(ou, gm) >= sol.sigma_star_sq - 1e-12


# ---------------------------------------------------------------------------
# mean function
# ---------------------------------------------------------------------------


def test_mean_function_at_atom_location(ou):
    m = MixedMeasure.from_atoms((0.0, 1.0), [(0.4, 1.0)])
    assert mean_function(ou, m, [0.4])[0] == pytest.approx(1.0, rel=1e-15)


def test_mean_function_of_boundary_uniform_mix_at_left_end(ou):
    nu = ou_measure(0.0, 1.0)
    got = mean_function(ou, nu, [0.0])[0]
    assert got == pytest.approx(2 / 3, abs=2e-6)


def test_mean_function_of_power_family_is_one_everywhere():
    mu = power_law_measure(0.5, 1.0, 4.0)
    kern = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    ts = np.linspace(1.0, 4.0, 21)
    got = mean_function(kern, mu, ts)
    assert np.allclose(got, 1.0, rtol=0, atol=1e-6)


class FormlessOU(OrnsteinUhlenbeck):
    """OU with its Markov form hidden: the measure sums take the blocked route."""

    def _markov(self, pts):
        return None


class FormlessModulatedBrownian(ModulatedBrownian):
    def _markov(self, pts):
        return None


def test_blocked_route_matches_the_markov_route(ou, ou_grid_k5):
    example1 = ModulatedBrownian(PowerScale(0.5), 1.0, 4.0)
    cases = [
        (ou, FormlessOU(), ou_measure(0.0, 1.0), (0.0, 1.0)),
        (example1, FormlessModulatedBrownian(PowerScale(0.5), 1.0, 4.0),
         normalize(tbm_measure(PowerScale(0.5), 1.0, 4.0).measure), (1.0, 4.0)),
        (ou, FormlessOU(), GridMeasure(
            ou_grid_k5, np.random.default_rng(5).dirichlet(np.ones(ou_grid_k5.n))), (0.0, 1.0)),
    ]
    for markov, blocked, m, (lo, hi) in cases:
        assert blocked.markov_form(np.array([lo, hi])) is None
        assert markov.markov_form(np.array([lo, hi])) is not None
        assert energy(blocked, m) == pytest.approx(energy(markov, m), rel=1e-12, abs=0)
        ts = np.linspace(lo, hi, 100)   # several row blocks for a mixed measure
        want = mean_function(markov, m, ts)
        assert np.abs(mean_function(blocked, m, ts) - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_atom_goes_to_nearest_point():
    m = MixedMeasure.from_atoms((0.0, 1.0), [(0.0, 1.0)])
    gm = discretize(m, DyadicGrid(0.0, 1.0, 1))
    assert np.allclose(gm.weights, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_discretize_tied_atom_snaps_left():
    m = MixedMeasure.from_atoms((0.0, 1.0), [(0.25, 1.0)])  # equidistant to 0 and 0.5
    gm = discretize(m, DyadicGrid(0.0, 1.0, 1))
    assert np.allclose(gm.weights, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_discretize_uniform_density_splits_by_cell_length():
    m = MixedMeasure.from_atoms(
        (0.0, 1.0), [], DensityPart(0.0, 1.0, UniformForm(1.0)))
    gm = discretize(m, DyadicGrid(0.0, 1.0, 1))
    assert np.allclose(gm.weights, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)


def test_discretize_boundary_uniform_mix_level_two():
    # atoms of 1/3 at the ends plus uniform cell masses (1/3)*(1/8,1/4,1/4,1/4,1/8)
    gm = discretize(ou_measure(0.0, 1.0), DyadicGrid(0.0, 1.0, 2))
    expected = np.array([1 / 3 + 1 / 24, 1 / 12, 1 / 12, 1 / 12, 1 / 3 + 1 / 24])
    assert np.allclose(gm.weights, expected, rtol=0, atol=1e-12)
    assert gm.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_discretize_requires_probability_measure():
    mu = power_law_measure(0.5, 1.0, 4.0)  # mass > 1
    with pytest.raises(ValueError):
        discretize(mu, DyadicGrid(1.0, 4.0, 2))


def test_discretize_converges_along_refinement():
    nu = ou_measure(0.0, 1.0)
    dists = []
    for k in (2, 3, 4):
        coarse = discretize(nu, DyadicGrid(0.0, 1.0, k))
        fine = discretize(nu, DyadicGrid(0.0, 1.0, k + 4))
        dists.append(wasserstein1(coarse, fine))
    assert dists[0] > dists[1] > dists[2]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_tv_distance_basics():
    grid = PointGrid(np.array([0.0, 1.0]))
    p = GridMeasure(grid, np.array([0.5, 0.5]))
    q = GridMeasure(grid, np.array([0.25, 0.75]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(GridMeasure(grid, np.array([1.0, 0.0])),
                       GridMeasure(grid, np.array([0.0, 1.0]))) == 1.0
    assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(GridMismatchError):
        tv_distance(p, GridMeasure(PointGrid(np.array([0.0, 2.0])),
                                   np.array([0.5, 0.5])))


def test_wasserstein_basics():
    grid = PointGrid(np.array([0.0, 1.0]))
    delta0 = GridMeasure(grid, np.array([1.0, 0.0]))
    delta1 = GridMeasure(grid, np.array([0.0, 1.0]))
    half = GridMeasure(grid, np.array([0.5, 0.5]))
    assert wasserstein1(delta0, delta0) == 0.0
    assert wasserstein1(delta0, delta1) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein1(delta0, half) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(GridMismatchError):
        wasserstein1(delta0, GridMeasure(PointGrid(np.array([0.0, 2.0])),
                                         np.array([0.5, 0.5])))


def test_distances_satisfy_metric_axioms_on_random_triples():
    rng = np.random.default_rng(12)
    grid = DyadicGrid(0.0, 1.0, 3)
    for _ in range(20):
        p, q, r = (GridMeasure(grid, rng.dirichlet(np.ones(grid.n)))
                   for _ in range(3))
        for dist in (tv_distance, wasserstein1):
            assert dist(p, p) <= 1e-15
            assert dist(p, q) == pytest.approx(dist(q, p), rel=1e-12)
            assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12



# ---------------------------------------------------------------------------
# grid measures and serialization
# ---------------------------------------------------------------------------


def test_grid_measure_validates_weights():
    grid = DyadicGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridMeasure(grid, np.array([0.5, 0.4, 0.2]))  # sums to 1.1
    with pytest.raises(ValueError):
        GridMeasure(grid, np.array([-0.1, 0.6, 0.5]))
    with pytest.raises(GridMismatchError):
        GridMeasure(grid, np.array([0.5, 0.5]))


def test_grid_measure_from_raw_renormalizes():
    grid = DyadicGrid(0.0, 1.0, 1)
    gm = GridMeasure.from_raw(grid, np.array([2.0, -1e-18, 2.0]))
    assert gm.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert gm.weights[1] == 0.0
    with pytest.raises(ValueError):
        GridMeasure.from_raw(grid, np.zeros(3))


def test_mixed_measure_to_dict():
    # uniform form: equal endpoint atoms 1/(2 + b - a) and the same density level
    d = ou_measure(0.0, 2.0).to_dict()
    assert d["interval"] == [0.0, 2.0]
    assert d["atoms"] == [[0.0, 0.25], [2.0, 0.25]]
    assert d["density"] == {"lo": 0.0, "hi": 2.0, "scale": 1.0,
                            "form": {"type": "uniform", "level": 0.25}}

    # power form: alpha(1 - alpha) x^(2 alpha - 2)
    d = power_law_measure(0.3, 1.0, 2.0).to_dict()
    assert d["interval"] == [1.0, 2.0]
    np.testing.assert_allclose(d["atoms"], [[1.0, 0.7], [2.0, 0.3 * 2.0 ** -0.4]], rtol=1e-15)
    form = d["density"].pop("form")
    assert d["density"] == {"lo": 1.0, "hi": 2.0, "scale": 1.0}
    assert form == {"type": "power", "coef": pytest.approx(0.21, rel=1e-15),
                    "exponent": pytest.approx(-1.4, rel=1e-15)}

    # NegGGForm: -g g'' = 1/(4x) for g = sqrt(x), written as a 257-node table
    d = tbm_measure(PowerScale(0.5), 1.0, 4.0).measure.to_dict()
    assert d["interval"] == [1.0, 4.0]
    np.testing.assert_allclose(d["atoms"], [[1.0, 0.5], [4.0, 0.5]], rtol=1e-15)
    form = d["density"].pop("form")
    assert d["density"] == {"lo": 1.0, "hi": 4.0, "scale": 1.0}
    assert form["type"] == "tabulated"
    assert form["x"] == np.linspace(1.0, 4.0, 257).tolist()
    assert np.allclose(form["values"], 0.25 / np.linspace(1.0, 4.0, 257), rtol=1e-14, atol=0)
