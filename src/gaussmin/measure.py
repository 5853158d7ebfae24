"""Finite measures on an interval: atoms plus an absolutely continuous part.

``MixedMeasure`` represents ``sum_i p_i delta_{x_i} + f(x) dx`` with the
density supported on a subinterval; ``GridMeasure`` is a probability vector on
a grid. Energies (the covariance double integral) and mean functions are
sums of the covariance against the measure as weights on points: the atoms
exactly, and the density by composite midpoint quadrature -- midpoint avoids
evaluating densities at endpoint singularities. One routine makes both sums:
on the kernel's checked Markov form (``Kernel.markov_form``) in O(N), else
over row blocks of ``kernel.pairwise``, with no n x n matrix either way.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DomainError, GridMismatchError
from .grids import Grid
from .kernels import Kernel, ScaleFunction

QUAD_POINTS = 4096  # 2**12 composite midpoint panels in every density quadrature
# Kernel entries per quadrature block (1 MiB): a kernel's pairwise makes a few
# block-sized temporaries, so the energy and mean-function sums stay small.
QUAD_BLOCK = 2**17
WEIGHT_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# density descriptions
# ---------------------------------------------------------------------------


class DensityForm:
    def eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerForm(DensityForm):
    """coef * x**exponent."""

    coef: float
    exponent: float

    def eval(self, x):
        return self.coef * np.asarray(x, dtype=float) ** self.exponent


@dataclass(frozen=True)
class UniformForm(DensityForm):
    """Constant level."""

    level: float

    def eval(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.level)


@dataclass(frozen=True)
class NegGGForm(DensityForm):
    """-g(x) * g''(x) for a concave scale function g."""

    scale: ScaleFunction

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return -np.asarray(self.scale.g(x)) * np.asarray(self.scale.d2g(x))


@dataclass(frozen=True)
class DensityPart:
    """A density ``scale * form(x)`` supported on ``[lo, hi]``."""

    lo: float
    hi: float
    form: DensityForm
    scale: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def eval(self, x):
        return self.scale * self.form.eval(x)


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedMeasure:
    """Atoms plus an optional density on a compact interval.

    ``total_mass`` is cached at construction (atom sum plus midpoint
    quadrature of the density at ``QUAD_POINTS`` panels).
    """

    interval: tuple[float, float]
    atom_locations: np.ndarray
    atom_masses: np.ndarray
    density: DensityPart | None = None
    total_mass: float = field(init=False)

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        locs = np.atleast_1d(np.asarray(self.atom_locations, dtype=float)).copy()
        masses = np.atleast_1d(np.asarray(self.atom_masses, dtype=float)).copy()
        if locs.shape != masses.shape or locs.ndim != 1:
            raise ValueError("atom locations and masses must be matching 1-D arrays")
        if np.any(masses < 0):
            raise ValueError("atom masses must be >= 0")
        if locs.size and (locs.min() < a - 1e-12 or locs.max() > b + 1e-12):
            raise DomainError("atom outside the interval")
        keep = masses > 0  # zero-mass atoms are dropped from the representation
        locs, masses = locs[keep], masses[keep]
        if self.density is not None:
            d = self.density
            if d.lo < a - 1e-12 or d.hi > b + 1e-12:
                raise DomainError("density support outside the interval")
            xs, _ = _midpoints(d.lo, d.hi, 1024)
            if np.any(d.eval(xs) < -1e-12):
                raise ValueError("density is negative on its support")
        total = float(masses.sum()) + _density_mass(self.density)
        if total <= 0:
            raise ValueError("measure must have positive total mass")
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atom_locations", locs)
        object.__setattr__(self, "atom_masses", masses)
        object.__setattr__(self, "total_mass", total)

    @classmethod
    def from_atoms(cls, interval, atoms, density: DensityPart | None = None) -> "MixedMeasure":
        """Build from a list of ``(location, mass)`` pairs."""
        if atoms:
            locs, masses = zip(*atoms)
        else:
            locs, masses = [], []
        return cls(tuple(interval), np.asarray(locs, float), np.asarray(masses, float), density)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(l), float(m)) for l, m in zip(self.atom_locations, self.atom_masses)]

    def support_hull(self) -> tuple[float, float]:
        """Convex hull of the support (atoms and density)."""
        los, his = [], []
        if self.atom_locations.size:
            los.append(float(self.atom_locations.min()))
            his.append(float(self.atom_locations.max()))
        if self.density is not None:
            los.append(self.density.lo)
            his.append(self.density.hi)
        return min(los), max(his)

    def to_dict(self) -> dict:
        out = {
            "interval": [self.interval[0], self.interval[1]],
            "atoms": [[l, m] for l, m in self.atoms],
            "density": None,
        }
        if self.density is not None:
            d = self.density
            form: dict
            if isinstance(d.form, PowerForm):
                form = {"type": "power", "coef": d.form.coef, "exponent": d.form.exponent}
            elif isinstance(d.form, UniformForm):
                form = {"type": "uniform", "level": d.form.level}
            else:  # NegGGForm: serialize as a table of values
                xs = np.linspace(d.lo, d.hi, 257)
                form = {"type": "tabulated", "x": xs.tolist(), "values": d.form.eval(xs).tolist()}
            out["density"] = {"lo": d.lo, "hi": d.hi, "scale": d.scale, "form": form}
        return out


def _density_mass(density: DensityPart | None) -> float:
    if density is None:
        return 0.0
    xs, h = _midpoints(density.lo, density.hi, QUAD_POINTS)
    return float(np.sum(density.eval(xs)) * h)


@dataclass(frozen=True)
class GridMeasure:
    """Probability weights on a grid; weights sum to one within 1e-12."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != self.grid.points.shape:
            raise GridMismatchError("weights must match the grid length")
        if np.any(w < 0):
            raise ValueError("weights must be >= 0")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {WEIGHT_SUM_TOL}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_raw(cls, grid: Grid, raw: np.ndarray) -> "GridMeasure":
        """Clip tiny negatives and renormalize (for solver output)."""
        w = np.clip(np.asarray(raw, dtype=float), 0.0, None)
        s = w.sum()
        if s <= 0:
            raise ValueError("raw weights sum to zero")
        return cls(grid, w / s)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def normalize(m: MixedMeasure) -> MixedMeasure:
    """Scale a finite measure to a probability measure."""
    scale = 1.0 / m.total_mass
    density = None
    if m.density is not None:
        density = replace(m.density, scale=m.density.scale * scale)
    return MixedMeasure(m.interval, m.atom_locations, m.atom_masses * scale, density)


def _point_masses(m: MixedMeasure | GridMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The measure as weights on points: a grid measure's own, or the atoms
    and the density's midpoint nodes with their weights f(x) h."""
    if isinstance(m, GridMeasure):
        return m.grid.points, m.weights
    if m.density is None:
        return m.atom_locations, m.atom_masses
    xs, h = _midpoints(m.density.lo, m.density.hi, QUAD_POINTS)
    return (np.concatenate((m.atom_locations, xs)),
            np.concatenate((m.atom_masses, m.density.eval(xs) * h)))


def _covariance_sums(kernel: Kernel, ts: np.ndarray, points: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """sum_j R(ts_i, points_j) weights_j at every t_i.

    Where the kernel has a Markov form on the sorted distinct ts and points,
    the sums are the checked form's O(N) matvec of the weights, with the
    weights of equal points summed (the form needs increasing r). Otherwise
    they are taken over row blocks of ``kernel.pairwise`` of at most
    QUAD_BLOCK entries.
    """
    nodes, where = np.unique(np.concatenate((ts, points)), return_inverse=True)
    form = kernel.markov_form(nodes)   # also checks the points' domain
    if form is not None:
        node_weights = np.bincount(where[ts.size:], weights=weights, minlength=nodes.size)
        return form.matvec(node_weights)[where[:ts.size]]
    rows = max(1, QUAD_BLOCK // points.size)
    out = np.empty(ts.size)
    for i in range(0, ts.size, rows):
        out[i:i + rows] = kernel.pairwise(ts[i:i + rows], points) @ weights
    return out


def energy(kernel: Kernel, m: MixedMeasure | GridMeasure) -> float:
    """Double integral of the covariance against the measure squared: the
    weights against their own ``mean_function`` sums at the measure's points,
    a grid measure's weights, or the atoms (exact) and the density's
    composite midpoint rule of QUAD_POINTS panels. Deterministic.
    """
    points, weights = _point_masses(m)
    return float(weights @ _covariance_sums(kernel, points, points, weights))


def mean_function(kernel: Kernel, m: MixedMeasure | GridMeasure, eval_points) -> np.ndarray:
    """m(t) = integral of R(t, s) against the measure, at each requested t,
    summed over the same points as ``energy``, by the same routine."""
    points, weights = _point_masses(m)
    return _covariance_sums(kernel, np.atleast_1d(np.asarray(eval_points, dtype=float)),
                            points, weights)


def discretize(m: MixedMeasure, grid: Grid) -> GridMeasure:
    """Project a probability measure onto a grid.

    Atoms move to the nearest grid point (leftmost on ties); density mass over
    each cell bounded by neighboring-point midpoints goes to that cell's grid
    point. Output is explicitly renormalized.
    """
    if abs(m.total_mass - 1.0) > 1e-9:
        raise ValueError("discretize expects a probability measure; normalize first")
    pts = grid.points
    w = np.zeros(pts.size)
    for loc, mass in zip(m.atom_locations, m.atom_masses):
        w[int(np.argmin(np.abs(pts - loc)))] += mass  # argmin takes the leftmost tie
    if m.density is not None:
        edges = np.concatenate(([pts[0]], 0.5 * (pts[:-1] + pts[1:]), [pts[-1]]))
        edges[0] = min(edges[0], m.density.lo)
        edges[-1] = max(edges[-1], m.density.hi)
        per_cell = max(4, QUAD_POINTS // pts.size)
        for i in range(pts.size):
            lo = max(edges[i], m.density.lo)
            hi = min(edges[i + 1], m.density.hi)
            if lo >= hi:
                continue
            xs, h = _midpoints(lo, hi, per_cell)
            w[i] += float(np.sum(m.density.eval(xs)) * h)
    return GridMeasure.from_raw(grid, w)


def tv_distance(p: GridMeasure, q: GridMeasure) -> float:
    """Total variation distance between measures on the same grid."""
    if not np.array_equal(p.grid.points, q.grid.points):
        raise GridMismatchError("tv_distance requires both measures on the same grid")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())

