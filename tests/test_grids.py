"""Dyadic and explicit grid behavior."""

import numpy as np
import pytest

from gaussmin import MAX_LEVEL, DyadicGrid, PointGrid
from gaussmin.grids import as_points


def test_dyadic_grid_has_power_of_two_plus_one_points():
    for k in range(0, 7):
        grid = DyadicGrid(0.0, 1.0, k)
        assert grid.n == 2**k + 1
        assert grid.points.size == grid.n


def test_dyadic_grid_points_are_equally_spaced_with_exact_endpoints():
    grid = DyadicGrid(1.0, 4.0, 3)
    assert grid.points[0] == 1.0
    assert grid.points[-1] == 4.0
    steps = np.diff(grid.points)
    assert np.allclose(steps, 3.0 / 8.0, rtol=0, atol=1e-15)


def test_dyadic_grid_nesting():
    coarse = DyadicGrid(0.0, 1.0, 3)
    fine = DyadicGrid(0.0, 1.0, 4)
    assert np.all(np.isin(coarse.points, fine.points))


def test_dyadic_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DyadicGrid(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        DyadicGrid(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        DyadicGrid(0.0, 1.0, MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        DyadicGrid(0.0, 1.0, -1)


def test_point_grid_requires_strictly_increasing_points():
    grid = PointGrid(np.array([0.0, 0.5, 2.0]))
    assert grid.n == 3
    assert grid.interval == (0.0, 2.0)
    with pytest.raises(ValueError):
        PointGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        PointGrid(np.array([]))


def test_grids_are_immutable():
    grid = DyadicGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        grid.points[0] = 7.0


def test_as_points_accepts_grids_and_arrays():
    grid = DyadicGrid(0.0, 1.0, 1)
    assert np.array_equal(as_points(grid), np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(as_points([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_points([2.0, 1.0])

