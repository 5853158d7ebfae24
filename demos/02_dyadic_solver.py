"""Grid solver with optimality certificates and dyadic refinement.

On a grid the problem becomes min nu' Sigma nu over the probability simplex.
The solver computes theta = Sigma^{-1} 1, which is optimal when all its
components are nonnegative; otherwise it runs Lawson & Hanson's active-set
NNLS for min x' Sigma x / 2 - 1' x over x >= 0 and takes nu = x / sum(x).
On a Gram matrix theta comes from the sampler's jittered Cholesky factor
Sigma = L L' (which a Problem shares), and each active-set step grows a factor
of the active points by one row. On a Gauss-Markov kernel's (r, q), which a
Problem passes instead at every grid size, Sigma^{-1} is tridiagonal, so theta
and every active-set step cost O(n) and no n x n matrix is built: refine below
reaches 257 points that way, from its first level on. Before returning, it certifies optimality with
``certify`` through the mean function m = Sigma nu: m_j >= sigma*^2
everywhere with equality on the support."""

import numpy as np

from gaussmin import (
    DyadicGrid,
    OrnsteinUhlenbeck,
    PowerExponential,
    certify,
    refine,
    solve_simplex_qp,
)

ou = OrnsteinUhlenbeck()

print("refinement of sigma*^2_k, exponential kernel on [0, 1] (limit 2/3):")
trace = refine(ou, (0.0, 1.0), 2, 8, stop_tol=1e-14)
for entry in trace.entries:
    gap = entry.sigma_star_sq - 2 / 3
    print(f"  k={entry.k}  n={entry.measure.grid.n:4d}  "
          f"sigma*^2_k = {entry.sigma_star_sq:.10f}  (gap {gap:.2e})")

print("\nrefinement for the rougher PowerExponential(0.5) kernel:")
for entry in refine(PowerExponential(0.5), (0.0, 1.0), 2, 8, stop_tol=1e-14).entries:
    print(f"  k={entry.k}  sigma*^2_k = {entry.sigma_star_sq:.10f}")

grid = DyadicGrid(0.0, 1.0, 6)
sigma = ou.gram(grid)
sol = solve_simplex_qp(sigma, grid=grid)
report = certify(sigma, sol.measure)
print(f"\ncertificate at k=6 (method {sol.method}):")
print(f"  sigma*^2 = {sol.sigma_star_sq:.10f}")
print(f"  min slack m_j - sigma*^2      = {report.min_slack:.3e}")
print(f"  max |m_j - sigma*^2| on supp  = {report.max_support_violation:.3e}")
print(f"  passed: {report.passed}")

# a deliberately suboptimal measure fails its certificate: the mean function
# dips below the claimed optimum off the support
from gaussmin import GridMeasure

lopsided = np.zeros(grid.n)
lopsided[0] = 1.0
bad = certify(sigma, GridMeasure(grid, lopsided))
print(f"\npoint mass at the left endpoint: min slack {bad.min_slack:.4f} "
      f"-> passed: {bad.passed}")
