"""Deterministic conservation: the undamped coupled system preserves E_N
and the replica system preserves the mean-field energy, with integrator
drift shrinking by four per halving of dt (order 2).
"""

import numpy as np

from sigma_wave import (BallEnsemble, GridSpec, energy_en, energy_meanfield, random_field,
                        step_deterministic_meanfield, step_deterministic_nlw)


def smooth_ensemble(spec, n, seed):
    # radius inf keeps every mode: no dealiasing
    pos = [random_field(spec, np.random.default_rng(seed + 2 * j), decay=3.0).coeffs
           for j in range(n)]
    vel = [random_field(spec, np.random.default_rng(seed + 2 * j + 1), decay=4.0).coeffs
           for j in range(n)]
    return BallEnsemble(spec, np.inf, np.stack(pos).reshape(n, -1), np.stack(vel).reshape(n, -1))


spec = GridSpec(32, 1.0)
for label, n, stepper, efn in (("coupled E_N (N=4)", 4, step_deterministic_nlw, energy_en),
                               ("mean-field (R=8)", 8, step_deterministic_meanfield,
                                energy_meanfield)):
    print(f"{label}:")
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        ens = smooth_ensemble(spec, n, 77)
        e0 = efn(ens, 1.0)
        worst = 0.0
        for k in range(int(round(0.5 / dt))):
            ens = stepper(ens, dt)
            worst = max(worst, abs(efn(ens, 1.0) - e0))
        drifts.append(worst / abs(e0))
        print(f"  dt = {dt:6.0e}: relative drift {drifts[-1]:.3e}")
    print(f"  ratios: {drifts[0] / drifts[1]:.2f}, {drifts[1] / drifts[2]:.2f} "
          f"(4.0 = exact order 2)\n")
