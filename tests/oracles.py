"""Independent implementations that tests compare the production code
against, and the full-grid helper that builds their inputs.  The program
never runs them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sigma_wave.dynamics import HlsmState
from sigma_wave.grid import (BallEnsemble, GridSpec, SpectralField, _ball_index, _bracket_pow,
                             ball_mask, project)
from sigma_wave.noise import _half_lattice
from sigma_wave.wick import hermite


def ball_ensemble(spec: GridSpec, pos, vel=None, radius: float = np.inf) -> BallEnsemble:
    """Full ``(N, n, n)`` coefficient stacks (``vel`` zero by default) packed on
    the ball ``|n| <= radius``, every mode by default; data off the ball raise."""
    vel = np.zeros_like(pos) if vel is None else vel
    idx = _ball_index(spec.n_grid, float(radius))
    flat = [np.asarray(a, dtype=np.complex128).reshape(len(a), -1) for a in (pos, vel)]
    if any(np.any(np.delete(a, idx, axis=1)) for a in flat):
        raise ValueError(f"coefficients outside the ball |n| <= {radius}")
    return BallEnsemble(spec, radius, flat[0][:, idx], flat[1][:, idx])


def gibbs_potential_reference(ens: BallEnsemble, alpha: float) -> float:
    """Unfactored double loop over component pairs; the oracle."""
    ug = np.fft.ifft2(ens.full()[0], norm="forward").real
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
    """Unfactored six-term double loop; the oracle for ``hlsm_rhs``, packed
    alike on the ball of ``v``.

    Products are formed on full complex-FFT grids, independently of the
    half-spectrum transforms of the program."""
    c = state.renorm.sigma_at(state.step)
    mask = ball_mask(state.v.spec, state.v.radius)
    vg = np.fft.ifft2(np.where(mask, state.v.full()[0], 0.0), norm="forward").real
    pg = np.fft.ifft2(np.where(mask, state.psi.full()[0], 0.0), norm="forward").real
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
    return np.fft.fft2(out, norm="forward").reshape(n, -1)[:, state.v.index]


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



def sample_profile_full_grid(gen, spec: GridSpec, radius: float, profile: np.ndarray):
    """The per-component draw as written before it was built on the packed
    draw, on a full grid, zero off the ball: it defines the draw order every
    stream has used, and is the oracle for ``noise._sample_ball``."""
    self_idx, plus, minus = _half_lattice(spec.n_grid, float(radius))
    out = np.zeros(spec.n_grid * spec.n_grid, dtype=np.complex128)
    p = profile.reshape(-1)
    zr = gen.standard_normal(plus.size)
    zi = gen.standard_normal(plus.size)
    zs = gen.standard_normal(self_idx.size)
    out[plus] = np.sqrt(p[plus] / 2.0) * (zr + 1j * zi)
    out[minus] = np.conj(out[plus])
    out[self_idx] = np.sqrt(p[self_idx]) * zs
    return out.reshape(spec.shape())


@dataclass(frozen=True)
class WickContext:
    """Variance parameter and mode-ball truncation shared by a family of products."""

    c: float
    truncation: float

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError(f"variance parameter must be >= 0, got {self.c}")


def _grid(f: SpectralField, truncation: float) -> np.ndarray:
    return project(f, truncation).to_grid()


def wick_pair(psi_k: SpectralField, psi_j: SpectralField, ctx: WickContext,
              same_component: bool) -> SpectralField:
    """Renormalized product of two convolution components.

    The contraction E[psi psi] = c only arises within one component, so the
    cross term is the plain product.
    """
    spec = psi_j.spec
    if same_component:
        out = hermite(2, _grid(psi_j, ctx.truncation), ctx.c)
    else:
        out = _grid(psi_k, ctx.truncation) * _grid(psi_j, ctx.truncation)
    return SpectralField.from_grid(spec, out)


def wick_triple(psi_k: SpectralField, psi_j: SpectralField, ctx: WickContext,
                same_component: bool) -> SpectralField:
    """Renormalized psi_k^2 psi_j: H_3 within a component, H_2 * psi across."""
    spec = psi_j.spec
    if same_component:
        out = hermite(3, _grid(psi_j, ctx.truncation), ctx.c)
    else:
        out = hermite(2, _grid(psi_k, ctx.truncation), ctx.c) * _grid(psi_j, ctx.truncation)
    return SpectralField.from_grid(spec, out)


def sup_sobolev_norm(f: SpectralField, s: float) -> float:
    """``W^{s,inf}`` proxy: sup over collocation points of ``<grad>^s f``.

    For negative ``s`` this is the low-regularity sup norm used to measure
    Wick products and their empirical averages.
    """
    w = _bracket_pow(f.spec.n_grid, float(s))
    smoothed = np.fft.ifft2(w * f.coeffs, norm="forward").real
    return float(np.max(np.abs(smoothed)))
