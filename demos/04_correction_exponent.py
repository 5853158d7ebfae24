"""Growth exponent of the second-order tail correction.

Beyond the Gaussian leading order, log P(min > u) = -u^2/(2 sigma*^2) - D(u)
with D(u) growing like a power of u. The script measures D(u) over a u sweep
for Brownian motion scaled by sqrt(t) (each u on its own substream), fits
log(-D) against log(u), and compares the slope with the grid-roughness
lower-bound exponent 1/(beta + 1).
"""

from gaussmin import (
    DyadicGrid,
    ModulatedBrownian,
    PowerScale,
    Problem,
    SamplerConfig,
    correction_diagnostic,
)

grid = DyadicGrid(1.0, 2.0, 5)
problem = Problem(ModulatedBrownian(PowerScale(0.5), 1.0, 2.0), grid)
config = SamplerConfig(seed=11, n_paths=200_000)

u_list = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
diag = correction_diagnostic(problem, u_list, config, beta=0.5)

print(f"sigma*^2 = {problem.solution.sigma_star_sq:.6f} on {grid.n} points, "
      f"n = {config.n_paths} paths per u\n")
print(f"{'u':>4} {'log p':>10} {'D(u)':>9}")
for u, log_p, d in diag.rows:
    print(f"{u:4.1f} {log_p:10.4f} {d:9.4f}")

print(f"\nfitted exponent  = {diag.exponent:.4f} "
      f"(+/- {diag.exponent_halfwidth:.4f})")
print(f"lower-bound rate = 1/(beta+1) = {diag.lower_bound_exponent:.4f} "
      f"for roughness beta = {diag.beta}")
if diag.excluded:
    print(f"excluded u (D >= 0, pure noise): {diag.excluded}")
else:
    print("every D(u) was strictly negative, as the upper bound requires")
