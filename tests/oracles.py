"""Independent implementations that tests compare the production code
against, and the full-grid helper that builds their inputs.  The program
never runs them."""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from sigma_wave.diagnostics import _mean_row, energy_en
from sigma_wave.dynamics import HlsmState, _step_count, step_linear_ensemble
from sigma_wave.grid import (BallEnsemble, GridSpec, _ball_index, _ball_mask, _bracket_pow,
                             _i_profile, _mode_vectors, _to_coeffs, _to_grid, ball_mask, rms)
from sigma_wave.noise import NoiseKind, NoiseStream, RenormConstants, alpha_m, stationary_ensemble
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


def _proposal_exponent(src, dst, grad_src, w_ball, inv_w, h: float) -> float:
    beta = 1.0 - 0.5 * h * h
    mean = beta * src - 0.5 * h * h * grad_src * inv_w
    diff = dst - mean
    return float(np.sum(w_ball * (diff.real**2 + diff.imag**2)) / (2.0 * h * h))


def reference_mala_log_ratio(pos, prop, grad_pos, grad_prop, energy_pos, energy_prop,
                             w_ball, inv_w, h: float) -> float:
    """The MALA log acceptance ratio from energies and two separate proposal
    exponents, each a full weighted sum of its own; the oracle of the
    one-pass ``gibbs.mala_log_ratio``."""
    return (energy_pos - energy_prop
            + _proposal_exponent(pos, prop, grad_pos, w_ball, inv_w, h)
            - _proposal_exponent(prop, pos, grad_prop, w_ball, inv_w, h))


def residual_drift(state) -> np.ndarray:
    """Drift of either residual system (``HlsmState`` or ``MeanFieldState``)
    at its current step, packed on the ball of ``v``."""
    c = state.renorm.sigma_at(state.step)
    return state.drift(state.v.pos, state.psi, c, state.v.radius)


def hlsm_rhs_reference(state: HlsmState) -> np.ndarray:
    """Unfactored six-term double loop; the oracle for the drift of
    ``HlsmState``, packed alike on the ball of ``v``.

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


def factored_ensemble_drift(v_pos: np.ndarray, psi: BallEnsemble, c: float,
                            radius: float) -> np.ndarray:
    """The six-term coupling of the residual ensemble in its factored form,
    ``-(q + 2p + w - 2c/N) (v + psi)`` with q = <v^2>, p = <psi v> and
    w = <psi^2> - c: v and psi each taken to the grid, the three means formed
    there, packed alike on the ``|n| <= radius`` ball of v."""
    n, n_grid = v_pos.shape[-2], psi.spec.n_grid
    vg, pg = _to_grid(v_pos, n_grid, radius), _to_grid(psi.pos, n_grid, psi.radius)
    q, p = np.mean(vg * vg, axis=0), np.mean(pg * vg, axis=0)
    w = np.mean(pg * pg, axis=0) - c
    return _to_coeffs(-(q + 2.0 * p + w - 2.0 * c / n) * (vg + pg), radius)


def unblocked_lln_estimator(spec: GridSpec, kinds, N_list, truncation: int, T: float,
                            reps: int, eps: float, root_seed: int, dt: float = 0.1) -> dict:
    """``diagnostics.lln_estimator`` as written before it formed its Wick
    products block by block: every product on the whole ``(N, n, n)`` grid
    stack, ``sum_k H2(psi_k)`` one axis-0 sum, and the sup proxy through fresh
    ``rfft2``/``irfft2`` arrays; the oracle for its rows, bit for bit."""
    n_steps = _step_count(T, dt)
    c = alpha_m(spec.m, truncation)
    times = dt * np.arange(n_steps + 1)
    w = _bracket_pow(spec.n_grid, -float(eps))[:, :spec.nyquist + 1]

    def sup_proxy(z):
        smoothed = np.fft.irfft2(w * np.fft.rfft2(z, norm="forward"), s=spec.shape(),
                                 norm="forward")
        return np.max(np.abs(smoothed), axis=(-2, -1))

    def task(n, base):
        ens = stationary_ensemble(spec, float(truncation), root_seed, n, base)
        streams = [NoiseStream(root_seed, base + j, NoiseKind.DRIVE) for j in range(n)]
        vals = np.empty((len(kinds), n_steps + 1))
        for step in range(n_steps + 1):
            if step > 0:
                ens = step_linear_ensemble(ens, streams, step - 1, dt)
            pg = _to_grid(ens.pos, spec.n_grid, ens.radius)
            h2_sum = np.sum(pg * pg - c, axis=0)
            for i, kind in enumerate(kinds):
                if kind == "wick_square_avg":
                    vals[i, step] = sup_proxy(h2_sum / n)
                elif kind == "wick_triple_avg":
                    vals[i, step] = sup_proxy((h2_sum * pg[0] - 2.0 * c * pg[0]) / n)
                else:
                    vals[i, step] = rms(sup_proxy((h2_sum[None] * pg - 2.0 * c * pg) / n))
        return np.sqrt(np.trapezoid(vals * vals, times, axis=1))

    norms = np.asarray([task(n, (n_idx * reps + rep) * n) for n_idx, n in enumerate(N_list)
                        for rep in range(reps)]).reshape(len(N_list), reps, len(kinds))
    return {kind: [_mean_row(n, norms[n_idx, :, i]) for n_idx, n in enumerate(N_list)]
            for i, kind in enumerate(kinds)}


def modified_energy(ens: BallEnsemble, m: float, s: float, truncation: float) -> float:
    """Energy of the I-smoothed ensemble: :func:`energy_en` of the stacks times
    the I-method multiplier gathered on the ensemble's ball.  It equals
    ``energy_en`` once the threshold clears ``nyquist * sqrt(2)`` and the
    multiplier is 1 everywhere."""
    prof = _i_profile(ens.spec.n_grid, float(s), float(truncation)).reshape(-1)[ens.index]
    return energy_en(BallEnsemble(ens.spec, ens.radius, prof * ens.pos, prof * ens.vel), m)


def flat_half_lattice(n_grid: int, radius: float):
    """Flat indices into the ``(n, n)`` grid of the ``|n| <= radius`` modes,
    split into self-conjugate modes and mirror pairs: ``minus[i]`` is the
    mirror of ``plus[i]``, the smaller flat index of the pair, in ascending
    order.  The full-grid oracles draw in this order."""
    n1, n2 = _mode_vectors(n_grid)
    in_ball = _ball_mask(n_grid, float(radius))
    idx = np.arange(n_grid * n_grid).reshape(n_grid, n_grid)
    mirror = idx[(-n1) % n_grid, (-n2) % n_grid]
    flat, mflat = idx[in_ball], mirror[in_ball]
    return flat[flat == mflat], flat[flat < mflat], mflat[flat < mflat]


def zero_renorm(m: float, dt: float, n_steps: int) -> RenormConstants:
    """All-zero schedule with an empty truncation; turns the noise and the
    Wick subtractions off for deterministic integration tests."""
    times = np.arange(n_steps + 1) * dt
    return RenormConstants(m, -1, dt, times, np.zeros(n_steps + 1), 0.0)


def transition_covariance_mp(lam: float, dt: float, dps: int = 50) -> tuple:
    """``(Qxx, Qxv, Qvv)`` of one mode's transition covariance at ``dps``
    digits, from the closed forms of twice the integrals of ``d^2``, ``d d'``
    and ``d'^2`` for the impulse response ``d(s) = exp(-s/2) sin(s w^(1/2)) /
    w^(1/2)``, ``w = lam - 1/4`` (``Qxv = d(dt)^2``), and from their exact
    limit at ``w = 0``; the oracle of ``noise.transition_covariance``.  The
    float inputs enter exactly; the entries come back as mpmath numbers."""
    with mpmath.workdps(dps):
        lam, t = mpmath.mpf(lam), mpmath.mpf(dt)
        w = lam - mpmath.mpf(1) / 4
        e = mpmath.exp(-t)
        if w == 0:  # d(s) = s exp(-s/2); j_k = integral_0^t s^k exp(-s) ds
            j0, j1, j2 = 1 - e, 1 - e * (t + 1), 2 - e * (t * t + 2 * t + 2)
            return 2 * j2, e * t * t, 2 * j0 - 2 * j1 + j2 / 2
        om = mpmath.sqrt(mpmath.mpc(w))  # imaginary below lam = 1/4: sinh and cosh
        sc1 = (mpmath.sin(om * t) / om).real
        sc2 = (mpmath.sin(2 * om * t) / om).real
        cc2 = mpmath.cos(2 * om * t).real
        i1 = 1 - e
        ic = (1 - e * cc2 + 2 * w * e * sc2) / (4 * lam)   # integral of exp(-s) cos(2 om s)
        isw = (2 - e * (sc2 + 2 * cc2)) / (4 * lam)        # ... of exp(-s) sin(2 om s) / om
        qxx = (i1 - ic) / w
        return qxx, e * sc1 * sc1, i1 + ic - isw + qxx / 4


def fresh_generator(stream: NoiseStream, step: int) -> np.random.Generator:
    """A new ``Generator(Philox)`` built from the stream's key and the counter
    ``(0, 0, step, 0)``; the oracle of the re-keyed ``NoiseStream.generator``."""
    key = (np.uint64(stream.root_seed % 2**64), np.uint64((stream.component << 8) | stream.kind))
    counter = (np.uint64(0), np.uint64(0), np.uint64(step), np.uint64(0))
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draw_kick_full_grid(gen, spec: GridSpec, radius: float, chol):
    """The full-grid noise kick the packed ``noise._draw_kick`` replaced; the
    oracle for it.  ``chol`` is ``noise._transition_tables(spec, dt)[1]``.

    Correlated pair of Hermitian Gaussian arrays with covariance Q_n(dt).
    """
    l11, l21, l22 = chol
    self_idx, plus, minus = flat_half_lattice(spec.n_grid, radius)
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
    self_idx, plus, minus = flat_half_lattice(spec.n_grid, radius)
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


def _grid(coeffs: np.ndarray, truncation: float) -> np.ndarray:
    """Grid values of full ``(n, n)`` coefficients cut sharply to ``|n| <= truncation``."""
    kept = np.where(_ball_mask(coeffs.shape[-1], float(truncation)), coeffs, 0.0)
    return np.fft.ifft2(kept, norm="forward").real


def wick_pair(psi_k: np.ndarray, psi_j: np.ndarray, ctx: WickContext,
              same_component: bool) -> np.ndarray:
    """Renormalized product of two convolution components, full ``(n, n)``
    coefficients in and out.

    The contraction E[psi psi] = c only arises within one component, so the
    cross term is the plain product.
    """
    if same_component:
        out = hermite(2, _grid(psi_j, ctx.truncation), ctx.c)
    else:
        out = _grid(psi_k, ctx.truncation) * _grid(psi_j, ctx.truncation)
    return np.fft.fft2(out, norm="forward")


def wick_triple(psi_k: np.ndarray, psi_j: np.ndarray, ctx: WickContext,
                same_component: bool) -> np.ndarray:
    """Renormalized psi_k^2 psi_j: H_3 within a component, H_2 * psi across."""
    if same_component:
        out = hermite(3, _grid(psi_j, ctx.truncation), ctx.c)
    else:
        out = hermite(2, _grid(psi_k, ctx.truncation), ctx.c) * _grid(psi_j, ctx.truncation)
    return np.fft.fft2(out, norm="forward")


def sup_sobolev_norm(coeffs: np.ndarray, s: float) -> float:
    """``W^{s,inf}`` proxy of full ``(n, n)`` coefficients: sup over collocation
    points of ``<grad>^s f``.

    For negative ``s`` this is the low-regularity sup norm used to measure
    Wick products and their empirical averages.
    """
    w = _bracket_pow(coeffs.shape[-1], float(s))
    smoothed = np.fft.ifft2(w * coeffs, norm="forward").real
    return float(np.max(np.abs(smoothed)))
