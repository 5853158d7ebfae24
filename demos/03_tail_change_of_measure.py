"""Tail probabilities P(min > u): crude Monte Carlo vs change of measure.

The identity P(min X > u) = e^{-u^2/(2 sigma*^2)} E[e^{-u Y / sigma*^2}
1(min X > 0)] with Y the path integrated against the optimal measure turns
a rare event into a moderate one: paths are sampled under the original law
and only reweighted. The crude estimator dies once hits run out; the
weighted one keeps a usable relative error far beyond that.
"""

import numpy as np

from gaussmin import (
    DyadicGrid,
    OrnsteinUhlenbeck,
    Problem,
    SamplerConfig,
    tail_is,
)

grid = DyadicGrid(0.0, 1.0, 5)
problem = Problem(OrnsteinUhlenbeck(), grid)
config = SamplerConfig(seed=7, n_paths=200_000)
s2 = problem.solution.sigma_star_sq

print(f"sigma*^2 = {s2:.6f} on a {grid.n}-point grid; n = {config.n_paths} paths\n")
print(f"{'u':>4} {'crude':>12} {'stderr':>10} {'weighted':>12} {'stderr':>10} "
      f"{'rel err':>8}")
# one pass over the paths gives every u, and both estimators: tail_is counts
# the crude hits on the same paths and returns them as meta["crude"]
us = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
weighted_at = dict(zip(us + [50.0], tail_is(problem, us + [50.0], config)))
for u in us:
    weighted = weighted_at[u]
    crude = weighted.meta["crude"]
    rel = weighted.meta["rel_stderr"]
    print(f"{u:4.1f} {crude.value:12.3e} {crude.stderr:10.1e} "
          f"{weighted.value:12.3e} {weighted.stderr:10.1e} {rel:8.1%}")

print("\ndeep tail, linear value underflows but the log survives:")
deep = weighted_at[50.0]
print(f"  u=50: log P(min > u) = {deep.log_value:.1f} "
      f"(value field {deep.value}, flagged log_only={deep.meta['log_only']})")

print("\nGaussian leading order vs the measured tail (the gap is the "
      "second-order correction):")
for u in (2.0, 3.0, 4.0):
    est = weighted_at[u]
    lead = -u * u / (2 * s2)
    print(f"  u={u:.0f}: log p = {est.log_value:9.4f}, -u^2/(2 sigma*^2) = "
          f"{lead:9.4f}, D(u) = {est.log_value - lead:8.4f}")
