"""Independent implementations that tests compare the production code
against.  The program never runs them."""

from __future__ import annotations

import numpy as np

from sigma_wave.dynamics import HlsmState
from sigma_wave.grid import ComponentEnsemble, dealias_mask
from sigma_wave.wick import hermite


def gibbs_potential_reference(ens: ComponentEnsemble, alpha: float) -> float:
    """Unfactored double loop over component pairs; the oracle."""
    ug = np.fft.ifft2(ens.pos, norm="forward").real
    n = len(ens)
    acc = np.zeros(ens.spec.shape())
    for k in range(n):
        for j in range(n):
            if k == j:
                acc += hermite(4, ug[j], alpha)
            else:
                acc += hermite(2, ug[k], alpha) * hermite(2, ug[j], alpha)
    return float(np.mean(acc) / (4.0 * n))


def hlsm_rhs_reference(state: HlsmState) -> np.ndarray:
    """Unfactored six-term double loop; the oracle for ``hlsm_rhs``.

    Products are formed on full complex-FFT grids, independently of the
    half-spectrum transforms of the program."""
    c = state.renorm.sigma_at(state.step)
    mask = dealias_mask(state.v.spec) if state.dealias else True
    vg = np.fft.ifft2(np.where(mask, state.v.pos, 0.0), norm="forward").real
    pg = np.fft.ifft2(np.where(mask, state.psi.pos, 0.0), norm="forward").real
    n = state.n_components
    out = np.empty_like(vg)
    for j in range(n):
        vj, pj = vg[j], pg[j]
        acc = np.zeros_like(vj)
        for k in range(n):
            vk, pk = vg[k], pg[k]
            h2k = hermite(2, pk, c)
            pair_kj = hermite(2, pj, c) if k == j else pk * pj
            triple_kj = hermite(3, pj, c) if k == j else h2k * pj
            acc += (vk * vk * vj + 2.0 * pk * vk * vj + vk * vk * pj
                    + h2k * vj + 2.0 * vk * pair_kj + triple_kj)
        out[j] = -acc / n
    return np.where(mask, np.fft.fft2(out, norm="forward"), 0.0)
