"""Mean-field convergence from Gibbs data: one component of the coupled
N-body system stays within O(N^{-1/2}) of the free field driven by the
same noise, in the pathwise energy norm.
"""

import numpy as np

from sigma_wave import GridSpec, fit_rate
from sigma_wave.cli import coupled_distance

spec = GridSpec(32, 1.0)
M, T, dt, stride = 7, 0.5, 0.01, 5


def distance(n, root):
    # the interacting and free systems are driven by identical noise streams
    # the (Gibbs, Gaussian) data: 300 coupled pCN iterations at h = 0.25
    return coupled_distance(spec, n, M, 0.25, 300, root, dt, int(round(T / dt)), stride, 0.9)


rows = []
for n in (4, 16, 64):
    vals = [distance(n, 17 + 101 * rep) for rep in range(5)]
    rows.append({"N": n, "mean_norm": float(np.mean(vals)),
                 "se": float(np.std(vals, ddof=1) / np.sqrt(len(vals)))})
    print(f"N = {n:3d}: pathwise distance {rows[-1]['mean_norm']:.4f} "
          f"+/- {rows[-1]['se']:.4f}")
fit = fit_rate(rows)
print(f"\nfitted rate {fit.slope:+.3f} +/- {fit.slope_se:.3f} (theory -0.5)")
