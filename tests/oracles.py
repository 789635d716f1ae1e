"""Independent implementations that tests compare the production code
against.  The program never runs them."""

from __future__ import annotations

import numpy as np

from sigma_wave.dynamics import HlsmState
from sigma_wave.grid import ComponentEnsemble, GridSpec, dealias_mask
from sigma_wave.noise import _half_lattice
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
    pg = np.fft.ifft2(np.where(mask, state.psi.full().pos, 0.0), norm="forward").real
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


def draw_kick_full_grid(gen, spec: GridSpec, radius: float, chol):
    """The full-grid noise kick the packed ``noise._draw_kick`` replaced; the
    oracle for it.  ``chol`` is ``noise._transition_tables(spec, dt)[1]``.

    Correlated pair of Hermitian Gaussian arrays with covariance Q_n(dt).
    """
    l11, l21, l22 = chol
    self_idx, plus, minus = _half_lattice(spec.n_grid, float(radius))
    n2 = spec.n_grid * spec.n_grid
    ex = np.zeros(n2, dtype=np.complex128)
    ev = np.zeros(n2, dtype=np.complex128)
    a, b, c = l11.reshape(-1), l21.reshape(-1), l22.reshape(-1)
    # complex standard normals on the canonical half, real on self-conjugate slots
    z1 = (gen.standard_normal(plus.size) + 1j * gen.standard_normal(plus.size)) / np.sqrt(2.0)
    z2 = (gen.standard_normal(plus.size) + 1j * gen.standard_normal(plus.size)) / np.sqrt(2.0)
    s1 = gen.standard_normal(self_idx.size)
    s2 = gen.standard_normal(self_idx.size)
    ex[plus] = a[plus] * z1
    ev[plus] = b[plus] * z1 + c[plus] * z2
    ex[minus] = np.conj(ex[plus])
    ev[minus] = np.conj(ev[plus])
    ex[self_idx] = a[self_idx] * s1
    ev[self_idx] = b[self_idx] * s1 + c[self_idx] * s2
    return ex.reshape(spec.shape()), ev.reshape(spec.shape())
