"""Analytic optimal measures for specific kernels.

Three families with closed forms:

* Ornstein-Uhlenbeck on [a, b]: equal endpoint atoms plus a uniform density,
  optimal energy 2 / (2 + b - a).
* Modulated Brownian motion X = B / g for positive concave g: an unnormalized
  measure mu with endpoint atoms and density -g g'' whose mean function is
  identically one, so sigma*^2 = 1 / mu([a, b]). Case A applies when
  h(a) = g(a) - a g'(a) >= 0; otherwise the left atom vanishes and the
  measure starts at the root a0 of h (case B).
* Power scale g(t) = t^alpha: the explicit power-law family
  mu_alpha = alpha(1-alpha) x^(2 alpha - 2) dx
            + (1-alpha) a^(2 alpha - 1) delta_a + alpha b^(2 alpha - 1) delta_b.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import ClosedFormError, DomainError
from .kernels import Kernel, ScaleFunction
from .measure import (DensityPart, MixedMeasure, NegGGForm, PowerForm, UniformForm,
                      energy, mean_function, normalize)

CHECK_MESH = 512
UNIT_MEAN_TOL = 1e-5
A0_TOL = 1e-12
A0_MAX_ITER = 200


def ou_measure(a: float, b: float) -> MixedMeasure:
    """Optimal probability measure for the Ornstein-Uhlenbeck kernel on [a, b].

    Atoms of mass 1/(2+b-a) at both endpoints plus uniform density of total
    mass (b-a)/(2+b-a).
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    c = 2.0 + (b - a)
    density = DensityPart(a, b, UniformForm(1.0 / c))
    return MixedMeasure.from_atoms((a, b), [(a, 1.0 / c), (b, 1.0 / c)], density)


def ou_sigma_star_sq(a: float, b: float) -> float:
    """Optimal energy for the Ornstein-Uhlenbeck kernel: 2 / (2 + b - a)."""
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    return 2.0 / (2.0 + (b - a))


class TbmResult(NamedTuple):
    measure: MixedMeasure
    case: str            # "A" or "B"
    a0: float | None     # root of g(x) - x g'(x) when case B


def _mesh_checks(g: ScaleFunction, lo: float, hi: float) -> None:
    xs = np.linspace(lo, hi, CHECK_MESH)
    gx = np.asarray(g.g(xs), dtype=float)
    if np.any(gx <= 0):
        raise ClosedFormError("scale function must be positive on the interval")
    f = -gx * np.asarray(g.d2g(xs), dtype=float)
    if np.min(f) < -1e-10 * (1.0 + np.abs(f).max()):
        raise ClosedFormError("negative density -g g'' detected: g is not concave")


def _find_a0(g: ScaleFunction, a: float, b: float) -> float:
    """Bisection root of h(x) = g(x) - x g'(x); h is nondecreasing for concave g."""
    h = lambda x: float(g.g(x)) - x * float(g.dg(x))
    lo, hi = a, b
    if h(hi) < 0:
        raise ClosedFormError(
            "g(x) - x g'(x) is negative at both endpoints: no left support point "
            "exists and the concave nondecreasing hypotheses fail on this interval")
    for _ in range(A0_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = h(mid)
        if abs(val) <= A0_TOL or hi - lo <= 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)):
            return mid
        if val < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tbm_measure(g: ScaleFunction, a: float, b: float) -> TbmResult:
    """Unnormalized optimal measure for X = B / g on [a, b] (0 < a < b).

    Case A (h(a) >= 0): mu = p_a delta_a + p_b delta_b + (-g g'') dx on (a, b)
    with p_a = (g(a)/a) h(a) and p_b = g(b) g'(b). Case B (h(a) < 0): the left
    atom disappears; mu = p_b delta_b + (-g g'') dx on [a0, b] where a0 solves
    h(a0) = 0. The mean function of mu under min(s,t)/(g(s)g(t)) is one on the
    support hull, hence sigma*^2 = 1 / mu-total-mass.

    Requires a continuous derivative for the case B root search; nondecreasing
    g is required on [a, b] in case A but only on [a0, b] in case B.
    """
    if not 0 < a < b:
        raise DomainError(f"need 0 < a < b, got [{a}, {b}]")
    _mesh_checks(g, a, b)
    h_a = float(g.g(a)) - a * float(g.dg(a))
    p_b = float(g.g(b)) * float(g.dg(b))
    if p_b < -1e-12:
        raise ClosedFormError("g(b) g'(b) < 0: g must be nondecreasing at the right endpoint")
    p_b = max(p_b, 0.0)
    case, a0 = ("A", None) if h_a >= 0 else ("B", _find_a0(g, a, b))
    lo = a if a0 is None else a0
    if np.min(np.asarray(g.dg(np.linspace(lo, b, CHECK_MESH)), dtype=float)) < -1e-12:
        raise ClosedFormError(f"case {case} requires g nondecreasing on [{lo:.6g}, {b:.6g}]")
    left = [(a, (float(g.g(a)) / a) * h_a)] if a0 is None else []
    measure = MixedMeasure.from_atoms((a, b), left + [(b, p_b)], _negg_density(g, lo, b))
    return TbmResult(measure, case, a0)


def _negg_density(g: ScaleFunction, lo: float, hi: float) -> DensityPart | None:
    """Density -g g'' on [lo, hi]; None when it vanishes identically."""
    form = NegGGForm(g)
    xs = np.linspace(lo, hi, CHECK_MESH)
    f = np.clip(form.eval(xs), 0.0, None)
    if f.max() <= 1e-14 * (1.0 + float(np.abs(np.asarray(g.g(xs))).max()) ** 2):
        return None
    return DensityPart(lo, hi, form)


def power_law_measure(alpha: float, a: float, b: float) -> MixedMeasure:
    """The explicit unnormalized family mu_alpha for the scale g(t) = t^alpha.

    mu_alpha = alpha(1-alpha) x^(2 alpha - 2) dx
             + (1-alpha) a^(2 alpha - 1) delta_a + alpha b^(2 alpha - 1) delta_b.
    Agrees entrywise with tbm_measure(PowerScale(alpha), a, b).
    """
    if not 0 < alpha < 1:
        raise DomainError(f"need 0 < alpha < 1, got {alpha}")
    if not 0 < a < b:
        raise DomainError(f"need 0 < a < b, got [{a}, {b}]")
    density = DensityPart(a, b, PowerForm(alpha * (1.0 - alpha), 2.0 * alpha - 2.0))
    atoms = [(a, (1.0 - alpha) * a ** (2.0 * alpha - 1.0)),
             (b, alpha * b ** (2.0 * alpha - 1.0))]
    return MixedMeasure.from_atoms((a, b), atoms, density)


def sigma_star_from_mu(kernel: Kernel, mu: MixedMeasure) -> float:
    """Optimal energy from an unnormalized measure with unit mean function.

    Verifies mean_function(kernel, mu) = 1 on the support hull at CHECK_MESH
    points (within UNIT_MEAN_TOL), then returns 1 / total mass, cross-checked
    against the energy of the normalized measure within UNIT_MEAN_TOL relative.
    """
    lo, hi = mu.support_hull()
    ts = np.linspace(lo, hi, CHECK_MESH)
    mf = mean_function(kernel, mu, ts)
    dev = float(np.abs(mf - 1.0).max())
    if dev > UNIT_MEAN_TOL:
        raise ClosedFormError(
            f"mean function deviates from 1 by {dev:.3e} on the support hull: "
            "the measure is not optimal for this kernel")
    value = 1.0 / mu.total_mass
    cross = energy(kernel, normalize(mu))
    if abs(cross - value) > UNIT_MEAN_TOL * value:
        raise ClosedFormError(
            f"energy cross-check failed: 1/mass {value:.10g} vs quadrature {cross:.10g}")
    return value
