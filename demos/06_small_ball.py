"""Small-ball probabilities: how often does the whole path stay near zero?

Two flavors. Range mode asks P(max |X| < eps) directly. The zstar mode
recenters by the certified optimizer's functional before asking the same
question, which is the quantity steering the conditional limit behavior.
"""

import numpy as np

from gaussmin import (
    DyadicGrid,
    OrnsteinUhlenbeck,
    Problem,
    SamplerConfig,
    small_ball,
)

problem = Problem(OrnsteinUhlenbeck(), DyadicGrid(0.0, 1.0, 5))
config = SamplerConfig(seed=17, n_paths=200_000)

print("range mode, P(max |X| < eps) on the dyadic grid (k=5):")
eps_list = [1.4, 1.2, 1.0, 0.8, 0.6]
for eps, est in zip(eps_list, small_ball(problem, eps_list, config)):
    print(f"  eps={eps:.1f}: p = {est.value:.5f} +- {est.stderr:.5f}  "
          f"(hits {est.meta['hits']:,})")

print("\nzstar mode, recentered by the optimizer (needs a certificate):")
eps_list = [1.4, 1.2, 1.0]
for eps, est in zip(eps_list, small_ball(problem, eps_list, config, mode="zstar")):
    print(f"  eps={eps:.1f}: p = {est.value:.5f} +- {est.stderr:.5f}")

print("\nboth ladders are decreasing in eps; the zstar ladder sits higher")
print("because subtracting Y m(t)/sigma*^2 removes the common drift component,")
print("leaving a residual field that fluctuates less around zero")
