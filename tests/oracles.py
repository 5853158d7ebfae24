"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately implemented apart from the package code paths
it is used to check: quadratures go through scipy.integrate, simplex optima
through exhaustive support enumeration and lattice mesh search, orthant
probabilities through the closed form cross-checked by double integration, the
standard-normal table through its plain out-of-place expression.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence
from scipy import integrate

from gaussmin import GridMismatchError
from gaussmin.gauss_sim import BLOCK_ROWS


# ---------------------------------------------------------------------------
# bivariate orthant probability
# ---------------------------------------------------------------------------


def orthant_closed(rho: float) -> float:
    """P(X > 0, Y > 0) for standard bivariate normal with correlation rho."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def orthant_dblquad(rho: float, u: float = 0.0) -> float:
    """Same probability by direct numerical double integration."""
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def density(y, x):
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return norm * math.exp(-0.5 * q)

    val, err = integrate.dblquad(density, u, np.inf, lambda x: u, lambda x: np.inf)
    if err > 1e-7:
        raise RuntimeError(f"orthant quadrature did not converge: err={err}")
    return val


# ---------------------------------------------------------------------------
# exact simplex quadratic minimization by support enumeration
# ---------------------------------------------------------------------------


def support_enumeration(sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact min of w^T sigma w over the probability simplex, n <= ~14.

    A minimizer restricted to its support S solves sigma[S,S] theta = 1 with
    theta >= 0 (stationarity of the interior restricted problem).  Every such
    candidate is feasible for the full problem, and the true optimum appears
    for S = its own support, so the minimum over candidates is exact.
    Singleton supports are always included, which also covers singular blocks.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    best_val = np.inf
    best_w = None
    for i in range(n):
        if sigma[i, i] < best_val:
            best_val = float(sigma[i, i])
            w = np.zeros(n)
            w[i] = 1.0
            best_w = w
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            block = sigma[np.ix_(subset, subset)]
            try:
                theta = np.linalg.solve(block, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            total = theta.sum()
            if total <= 0.0 or np.any(theta < -1e-12 * np.abs(theta).max()):
                continue
            val = 1.0 / total
            if val < best_val:
                best_val = float(val)
                w = np.zeros(n)
                w[list(subset)] = np.clip(theta, 0.0, None) / total
                best_w = w / w.sum()
    return best_val, best_w


def _simplex_energy(sigma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ij,kj->k", weights, sigma, weights)


def mesh_search(sigma: np.ndarray, mesh: float = 1e-3) -> tuple[float, np.ndarray]:
    """Lattice search over the simplex at the requested resolution.

    n <= 3 is enumerated outright on the full 1/mesh lattice.  Larger n uses
    a coarse full enumeration followed by pattern descent on progressively
    finer lattices down to the requested mesh; the objective is convex, so
    lattice-stationarity at the final step certifies the incumbent.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    if n == 1:
        return float(sigma[0, 0]), np.ones(1)
    levels = int(round(1.0 / mesh))
    if n <= 3:
        return _mesh_enumerate(sigma, levels)
    coarse_val, w = _mesh_enumerate(sigma, 16)
    step = 1.0 / 16.0
    best = coarse_val
    directions = [(i, j) for i in range(n) for j in range(n) if i != j]
    while step >= mesh / 2.0:
        improved = True
        while improved:
            improved = False
            for i, j in directions:
                if w[j] < step - 1e-15:
                    continue
                cand = w.copy()
                cand[i] += step
                cand[j] -= step
                val = float(cand @ sigma @ cand)
                if val < best - 1e-15:
                    best, w, improved = val, cand, True
        step /= 2.0
    return best, w


def _mesh_enumerate(sigma: np.ndarray, levels: int) -> tuple[float, np.ndarray]:
    n = sigma.shape[0]
    combos = itertools.combinations(range(levels + n - 1), n - 1)
    weights = []
    for cuts in combos:
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(levels + n - 2 - prev)
        weights.append(parts)
    weights = np.asarray(weights, dtype=float) / levels
    vals = _simplex_energy(sigma, weights)
    k = int(np.argmin(vals))
    return float(vals[k]), weights[k]


# ---------------------------------------------------------------------------
# quadrature oracles for the closed-form measures
# ---------------------------------------------------------------------------


def ou_energy_quad(a: float, b: float) -> float:
    """Energy of the mixed measure (delta_a + delta_b + length*uniform)/(2+b-a)
    under R(s,t) = exp(-|s-t|), via adaptive quadrature only."""
    c = 2.0 + (b - a)
    p = 1.0 / c

    def r(s, t):
        return math.exp(-abs(s - t))

    atom_atom = p * p * (r(a, a) + 2.0 * r(a, b) + r(b, b))
    dens = 1.0 / c

    def against_atom(t0):
        val, _ = integrate.quad(lambda s: r(s, t0) * dens, a, b, limit=200)
        return val

    atom_dens = 2.0 * p * (against_atom(a) + against_atom(b))

    def inner(t):
        val, _ = integrate.quad(lambda s: r(s, t) * dens, a, b,
                                points=[t], limit=200)
        return val * dens

    dens_dens, _ = integrate.quad(inner, a, b, limit=200)
    return atom_atom + atom_dens + dens_dens


def mu_alpha_mass_quad(alpha: float, a: float, b: float) -> float:
    """Total mass of the power-family measure via quadrature of its density."""
    p_a = (1.0 - alpha) * a ** (2.0 * alpha - 1.0)
    p_b = alpha * b ** (2.0 * alpha - 1.0)
    dens, _ = integrate.quad(
        lambda x: alpha * (1.0 - alpha) * x ** (2.0 * alpha - 2.0), a, b, limit=200)
    return p_a + p_b + dens


def mu_alpha_mean_quad(alpha: float, a: float, b: float, t: float) -> float:
    """Mean function of the power-family measure under min(s,t)/(g(s)g(t))."""
    def g(x):
        return x ** alpha

    def r(s):
        return min(s, t) / (g(s) * g(t))

    p_a = (1.0 - alpha) * a ** (2.0 * alpha - 1.0)
    p_b = alpha * b ** (2.0 * alpha - 1.0)
    val = p_a * r(a) + p_b * r(b)
    dens, _ = integrate.quad(
        lambda x: r(x) * alpha * (1.0 - alpha) * x ** (2.0 * alpha - 2.0),
        a, b, points=[t], limit=200)
    return val + dens


# ---------------------------------------------------------------------------
# the standard-normal table, out of place
# ---------------------------------------------------------------------------


def reference_normals(seed: int, stream: int, start: int, count: int,
                      n_points: int) -> np.ndarray:
    """The (count, n_points) block of the normal table, one generator per block.

    Path j is row j mod BLOCK_ROWS of its block's (BLOCK_ROWS, n_points) draw
    ``Generator(SFC64(SeedSequence(words))).standard_normal``, whose entropy
    is the six little-endian 32-bit halves of (seed, stream, j // BLOCK_ROWS).
    """
    tables = {}
    rows = []
    for j in range(start, start + count):
        block, row = divmod(j, BLOCK_ROWS)
        if block not in tables:
            words = [w for v in (seed, stream, block) for w in (v % 2**32, v // 2**32)]
            gen = Generator(SFC64(SeedSequence(np.array(words, dtype=np.uint32))))
            tables[block] = gen.standard_normal((BLOCK_ROWS, n_points))
        rows.append(tables[block][row])
    return np.array(rows).reshape(count, n_points)


def _stage_table(seed: int, stream: int, block: int, stage: int, n_points: int) -> np.ndarray:
    words = [w for v in (seed, stream, block, stage) for w in (v % 2**32, v // 2**32)]
    gen = Generator(SFC64(SeedSequence(np.array(words, dtype=np.uint32))))
    return gen.standard_normal((BLOCK_ROWS, n_points))


def reference_staged_paths(r: np.ndarray, q: np.ndarray, seed: int, stream: int,
                           start: int, count: int, support=()) -> np.ndarray:
    """Paths [start, start + count) of a Markov form (r, q) on a grid whose
    n - 1 is a multiple of 32, built coarse to fine by dense matrices.

    Block b's stage-0 table, from the eight 32-bit halves of (seed, stream, b,
    0), times the Cholesky factor of min(r_p, r_p') gives W at the prefix
    points p = i (n - 1) / 32. A row is alive when q_p W_p > 0 at every
    prefix point in ``support``. The stage-1 table, from (seed, stream, b, 1),
    gives the alive rows their rows first, in row order, then the others; a
    row's n - 1 normals z complete W between prefix points a < j <= b as
    W_a + D_j + (r_j - r_a) / (r_b - r_a) (W_b - W_a - D_b), with
    D_j = sum over a < i <= j of sqrt(r_i - r_(i-1)) z_i.
    """
    n = r.size
    width = (n - 1) // 32
    assert width * 32 == n - 1
    points = np.arange(33) * width
    prefix_lower = np.linalg.cholesky(np.minimum.outer(r[points], r[points]))
    # W = prefix_map @ W_prefix + free_map @ z, column by column
    prefix_map, free_map = np.zeros((n, 33)), np.zeros((n, n - 1))
    prefix_map[0, 0] = 1.0
    for i in range(32):
        a, b = points[i], points[i + 1]
        for j in range(a + 1, b + 1):
            lam = (r[j] - r[a]) / (r[b] - r[a])
            prefix_map[j, i] += 1.0 - lam
            prefix_map[j, i + 1] += lam
            for k in range(a + 1, b + 1):
                step = math.sqrt(r[k] - r[k - 1])
                free_map[j, k - 1] = (step if k <= j else 0.0) - lam * step
    tested = np.isin(points, list(support))
    blocks = {}
    rows = []
    for j in range(start, start + count):
        block, row = divmod(j, BLOCK_ROWS)
        if block not in blocks:
            w_prefix = _stage_table(seed, stream, block, 0, 33) @ prefix_lower.T
            alive = np.all(q[points][tested] * w_prefix[:, tested] > 0, axis=1)
            order = [*np.flatnonzero(alive), *np.flatnonzero(~alive)]
            blocks[block] = w_prefix, order, _stage_table(seed, stream, block, 1, n - 1)
        w_prefix, order, z = blocks[block]
        rows.append(q * (prefix_map @ w_prefix[row] + free_map @ z[order.index(row)]))
    return np.array(rows).reshape(count, n)


# ---------------------------------------------------------------------------
# Monte Carlo comparison helpers
# ---------------------------------------------------------------------------


def weighted_bin_stderr(weights: np.ndarray, indices: np.ndarray, n_bins: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weighted histogram and its per-bin delta-method stderr."""
    weights = np.asarray(weights, dtype=float)
    indices = np.asarray(indices)
    total = weights.sum()
    hist = np.bincount(indices, weights=weights, minlength=n_bins) / total
    err = np.empty(n_bins)
    for j in range(n_bins):
        resid = (indices == j).astype(float) - hist[j]
        err[j] = math.sqrt(float(np.sum((weights * resid) ** 2))) / total
    return hist, err


def binomial_bin_stderr(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial proportions and their binomial stderr."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p = counts / n
    return p, np.sqrt(p * (1.0 - p) / n)


def ks_critical(n: int, alpha: float = 1e-3) -> float:
    """One-sample Kolmogorov-Smirnov critical value (asymptotic formula)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def planted_logp(u_values, sigma_sq: float, gamma: float = 2.0 / 3.0,
                 scale: float = 1.0, intercept: float = 0.0) -> np.ndarray:
    """Synthetic log-tail values with an exact planted correction exponent."""
    u = np.asarray(u_values, dtype=float)
    return -u * u / (2.0 * sigma_sq) - scale * u ** gamma + intercept


# ---------------------------------------------------------------------------
# Wasserstein-1 distance between grid measures
# ---------------------------------------------------------------------------


def wasserstein1(p, q) -> float:
    """W1 distance of two grid measures via the CDF formula on the merged point set."""
    pa, pb = p.grid.interval
    qa, qb = q.grid.interval
    if abs(pa - qa) > 1e-12 or abs(pb - qb) > 1e-12:
        raise GridMismatchError("wasserstein1 requires grids on the same interval")
    xs = np.union1d(p.grid.points, q.grid.points)
    fp = np.cumsum(p.weights)[np.searchsorted(p.grid.points, xs, side="right") - 1]
    fq = np.cumsum(q.weights)[np.searchsorted(q.grid.points, xs, side="right") - 1]
    return float(np.sum(np.abs(fp - fq)[:-1] * np.diff(xs)))
