"""Where does a high minimum sit? The conditional argmin law.

Conditionally on min X > u, the location of the (leftmost) minimizer
converges to the optimal measure nu* as u grows. The same weighting
identity used for tails gives the conditional law without conditioning:
each path contributes its argmin with weight e^{-u Y / sigma*^2} 1(min > 0).
A second route conditions on {Y <= x, min > 0} and sends x to 0.
"""

import numpy as np

from gaussmin import (
    DyadicGrid,
    OrnsteinUhlenbeck,
    Problem,
    SamplerConfig,
    argmin_conditional,
    mx_conditional,
    tv_distance,
)

grid = DyadicGrid(0.0, 1.0, 4)
problem = Problem(OrnsteinUhlenbeck(), grid)
solution = problem.solution
config = SamplerConfig(seed=23, n_paths=500_000)

print(f"optimal measure on {grid.n} points: endpoints "
      f"{solution.measure.weights[0]:.4f} / {solution.measure.weights[-1]:.4f}, "
      f"interior about {solution.measure.weights[1]:.4f}\n")

print("argmin law given min > u (weighted histogram):")
us = [0.0, 1.0, 2.0, 3.0]
laws = argmin_conditional(problem, us, config)   # one pass for every u
for u, (hist, ess) in zip(us, laws):
    tv = tv_distance(hist, solution.measure)
    print(f"  u={u:.0f}: tv to nu* = {tv:.4f}, effective sample size = {ess:,.0f}")

print("\nthe same law through the Y <= x route (m_x):")
xs = [2.0, 1.0, 0.5]
for x, hist in zip(xs, mx_conditional(problem, xs, config)):
    print(f"  x={x:.2f}: tv to nu* = {tv_distance(hist, solution.measure):.4f}")

hist0, _ = laws[0]
print("\nunconditional argmin over surviving paths (u = 0), per grid point:")
pts = grid.points
w = hist0.weights
row = " ".join(f"{p:.2f}:{v:.3f}" for p, v in zip(pts[:5], w[:5]))
print(f"  left edge   {row}")
row = " ".join(f"{p:.2f}:{v:.3f}" for p, v in zip(pts[-5:], w[-5:]))
print(f"  right edge  {row}")
print("the mass piles onto the endpoints as u grows, mirroring nu*")
