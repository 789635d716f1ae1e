"""Reproducible noise streams, exact stochastic-convolution sampling, and
the renormalization constants.

The damped wave equation driven by sqrt(2) space-time white noise has, per
Fourier mode, a 2d Ornstein-Uhlenbeck structure: conditional on the state
at time t, the pair ``(psi_n, d_t psi_n)`` at time ``t + dt`` is the
homogeneous flow applied to the state plus a mean-zero Gaussian whose 2x2
covariance ``Q_n(dt)`` follows from the flow (:func:`transition_covariance`).
Sampling that transition exactly removes every time-discretization bias
from the renormalization identities, so the variance identities
``E[psi_M(t,x)^2] = sigma_m(t)`` and ``E[phi_M(t,x)^2] = alpha_m`` hold at
machine precision in law.  Started from rest, the state at time t is one
such transition, so the Wick constant ``sigma_m(t)`` is the ball sum of
``Qxx_n(t)``.

Streams are counter-based (Philox): the draw for a given ``(root_seed,
component, kind, step)`` is a pure function of the key, so Monte Carlo over
components or replicas parallelizes without any order dependence.  Each
thread owns one ``Generator``, built on its first draw, and every
:meth:`NoiseStream.generator` call re-keys it to the stream and step, with
the bits of a fresh build; so a handle is valid until the next call on the
same thread.  Every
draw is packed on its mode ball, the ``grid.BallEnsemble`` layout: the
kicks, with tables gathered once per (grid, dt, ball), and the profile
draws of :func:`_sample_ball`, whose per-mode variances come packed alike.
One mirror split (:func:`_half_lattice`, packed positions) and one
assembly (:func:`_hermitian`) write the plus, mirror and self-conjugate
slots of every draw.  The draws of many streams at one step come as the
rows of one array (:class:`_StepRows`), so a step's kicks or a batch of
equilibrium pairs are assembled once.  No draw fills a full grid.

Renormalization constants are lattice sums over the integer mode ball
``|n| <= M``.  They match grid-sampled fields exactly under the ``wick`` rule
of ``grid._BALL_RULES`` (at ``M = nyquist`` the grid folds the two lattice
modes ``(+-nyquist, 0)`` onto one slot).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .grid import BallEnsemble, GridSpec, _ball_index, write_csv
from .propagator import flow_entries

__all__ = [
    "NoiseKind",
    "NoiseStream",
    "RenormConstants",
    "alpha_m",
    "sigma_m",
    "transition_covariance",
    "stationary_ensemble",
]

# a series term below this share of its partial sum no longer moves it
_ROUNDING = 1e-17


class NoiseKind(IntEnum):
    DRIVE = 1      # Brownian increments of the wave noise
    INITIAL = 2    # Gaussian data draws (mu_1 x mu_0)
    CHAIN = 3      # sampler innovations
    VELOCITY = 4   # velocity refresh draws
    FIELD = 5      # generic experiment fields


class _Owner(threading.local):
    """Per thread: the one ``Generator`` that :meth:`NoiseStream.generator`
    re-keys, built on the thread's first draw, and the Philox state it sets,
    whose key and counter words each call fills in."""

    gen = None

    def __init__(self):
        self.key, self.counter = [0, 0], [0, 0, 0, 0]
        # an empty buffer, as a fresh Philox has, so the first draw starts a block
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": self.counter, "key": self.key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


_OWNER = _Owner()


@dataclass(frozen=True)
class NoiseStream:
    """Keyed source of Gaussian draws; one logical noise per (seed, component, kind).

    The Philox key is ``(root_seed mod 2**64, component << 8 | kind)``, so a
    kind takes 8 bits and a component 56; values outside them would alias
    another stream's key or overflow it, and raise.
    """

    root_seed: int
    component: int
    kind: int

    def __post_init__(self):
        if not 0 <= self.kind < 2**8:
            raise ValueError(f"noise kind must be in [0, 2**8), got {self.kind}")
        if not 0 <= self.component < 2**56:
            raise ValueError(f"noise component must be in [0, 2**56), got {self.component}")

    def generator(self, step: int) -> np.random.Generator:
        """The calling thread's generator, re-keyed to this stream's ``step``.

        Its state is the key, the counter ``(0, 0, step, 0)`` and an empty
        buffer, so its draws are those of a fresh
        ``Generator(Philox(key=..., counter=...))``: a pure function of key
        and step.  The handle is valid until the next ``generator`` call on
        the same thread, which re-keys the same object; draw what one step
        needs before asking for another.  The root seed enters mod 2**64, so
        derived seeds such as ``seed + 1`` wrap instead of overflowing the key.
        """
        if not 0 <= step < 2**64:
            raise ValueError(f"noise step must be in [0, 2**64), got {step}")
        owner = _OWNER
        if owner.gen is None:
            owner.gen = np.random.Generator(np.random.Philox(key=0))
        owner.key[0], owner.key[1] = self.root_seed % 2**64, (self.component << 8) | self.kind
        owner.counter[2] = step
        owner.gen.bit_generator.state = owner.state
        return owner.gen


class _StepRows:
    """The step-``step`` generators of ``streams`` as one source of rows:
    ``standard_normal(size)`` returns ``(len(streams), size)``, row i drawn
    from stream i, so a draw function that works on the last axis draws for
    every stream at once, bit for bit the rows of one-stream calls.  Each row
    re-keys the thread's generator through :meth:`NoiseStream.generator`
    (the name the benchmark's tracer and noise breaks patch) and is drawn
    before the next row asks for it."""

    def __init__(self, streams, step: int):
        self.streams, self.step = streams, step

    def standard_normal(self, size: int) -> np.ndarray:
        out = np.empty((len(self.streams), size))
        for row, stream in zip(out, self.streams):
            stream.generator(self.step).standard_normal(size, out=row)
        return out


@lru_cache(maxsize=64)
def _lattice_modes(M) -> np.ndarray:
    """The integer modes ``n`` of the ball ``|n| <= M``; M is a whole number >= 0."""
    if not (M >= 0 and float(M).is_integer()):
        raise ValueError(f"truncation M must be an integer >= 0, got {M}")
    M = int(M)
    k = np.arange(-M, M + 1)
    n1, n2 = np.meshgrid(k, k, indexing="ij")
    keep = n1 * n1 + n2 * n2 <= M * M
    return np.stack([n1[keep], n2[keep]], axis=1)


def alpha_m(m: float, M: int) -> float:
    """Equilibrium pointwise variance: ``sum_{|n|<=M} 1/(m + |n|^2)``."""
    if not m > 0:
        raise ValueError(f"mass m must be positive, got {m}")
    modes = _lattice_modes(M)
    return float(np.sum(1.0 / (m + np.sum(modes * modes, axis=1))))


def sigma_m(t, m: float, M: int):
    """Pointwise variance ``E[psi_M(t,x)^2]`` of the truncated convolution:
    the ball sum of the per-mode ``Qxx(t)`` from rest, 0 at ``t = 0``.  An
    array of times gives the array of variances, from one
    :func:`transition_covariance` call."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    modes = _lattice_modes(M)
    lam = m + np.sum(modes * modes, axis=1).astype(np.float64)
    out, live = np.zeros(t.shape), t > 0
    out[live] = np.sum(transition_covariance(lam, t[live][:, None])[0], axis=1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RenormConstants:
    """Schedule of Wick variances on a fixed step grid, plus the equilibrium value.

    ``sigma[k] = sigma_m(k*dt)``; ``alpha = alpha_m``.  The stationary
    (Gibbs) dynamics use the time-independent ``alpha``; the zero-data
    dynamics read ``sigma`` at step boundaries.
    """

    m: float
    M: int
    dt: float
    times: np.ndarray
    sigma: np.ndarray
    alpha: float

    @classmethod
    def build(cls, m: float, M: int, dt: float, n_steps: int) -> "RenormConstants":
        if not (np.isfinite(dt) and dt > 0 and n_steps >= 0):
            raise ValueError(f"need a finite dt > 0 and n_steps >= 0, got {dt} and {n_steps}")
        alpha = alpha_m(m, M)  # checks m before sigma_m sums over it
        times = np.arange(n_steps + 1) * dt
        return cls(m, int(M), dt, times, sigma_m(times, m, M), alpha)

    def sigma_at(self, step: int) -> float:
        return float(self.sigma[step])

    def to_csv(self, path) -> None:
        write_csv(path, "t,sigma_M,alpha_M",
                  ((t, s, self.alpha) for t, s in zip(self.times, self.sigma)))


def transition_covariance(lam, dt):
    """Entries ``(Qxx, Qxv, Qvv)`` of the per-mode transition covariance.

    ``Q(dt) = integral_0^dt e^{As} B B^T e^{A^T s} ds``, with ``A`` the damped
    companion matrix and ``B = (0, sqrt(2))``, solves ``Q' = AQ + QA^T + BB^T``
    from ``Q(0) = 0``.  So does ``S - F S F^T``, with ``S = diag(1/lam, 1)``
    the stationary covariance and ``F`` the flow (Van Loan, IEEE Trans.
    Automat. Control 23, 1978); by ``det F = exp(-dt)`` and ``s11 - s22 =
    s12`` its entries are ``Qxx = (1 - exp(-dt) - s11 s12) / lam``,
    ``Qxv = s12^2`` and ``Qvv = 1 - exp(-dt) + s12 s22``.  Where
    ``dt * max(1, sqrt(lam)) <= 1`` those differences cancel, so there the
    Taylor series of the equation is summed instead: the first term is
    ``dt BB^T``, term k + 1 is ``dt / (k + 1)`` times ``A T + T A^T`` of term
    k, and the sum stops when the terms fall below rounding (at most about
    30 of them).  Neither branch divides by ``lam - 1/4``.  For ``lam >= 0.05``
    and any dt, Qxx and Qvv are within 1e-14 of a 50-digit reference, relative,
    and Qxv within 1e-15 of the largest entry.  ``lam`` and ``dt`` broadcast
    against each other, each entry finite and positive; numbers give numbers.
    """
    lam, dt = np.broadcast_arrays(np.asarray(lam, dtype=np.float64),
                                  np.asarray(dt, dtype=np.float64))
    scalar = lam.ndim == 0
    lam, dt = np.atleast_1d(lam, dt)
    bad = ~(np.isfinite(lam) & (lam > 0) & np.isfinite(dt) & (dt > 0))
    if bad.any():
        raise ValueError(f"need finite lam > 0 and dt > 0, got lam = {lam[bad][0]}, "
                         f"dt = {dt[bad][0]}")
    s11, s12, _, s22 = flow_entries(lam, dt)
    i1 = -np.expm1(-dt)
    qxx, qxv, qvv = (i1 - s11 * s12) / lam, s12 * s12, i1 + s12 * s22

    near = dt * np.maximum(1.0, np.sqrt(lam)) <= 1.0
    if near.any():
        lam_n, dt_n = lam[near], dt[near]
        term = np.stack([np.zeros_like(lam_n), np.zeros_like(lam_n), 2.0 * dt_n])
        total = term.copy()
        for k in range(1, 40):
            xx, xv, vv = term
            term = np.stack([2.0 * xv, vv - lam_n * xx - xv, -2.0 * (lam_n * xv + vv)])
            term *= dt_n / (k + 1)
            total += term
            if np.all(np.abs(term) <= _ROUNDING * np.abs(total)):
                break
        qxx[near], qxv[near], qvv[near] = total
    if scalar:
        return float(qxx[0]), float(qxv[0]), float(qvv[0])
    return qxx, qxv, qvv


@lru_cache(maxsize=128)
def _half_lattice(n_grid: int, radius: float):
    """Packed positions, in ``_ball_index`` order, of the ``|n| <= radius``
    modes split into self-conjugate modes and mirror pairs.

    The pair arrays are aligned: ``minus[i]`` is the mirror slot of
    ``plus[i]``, and ``plus`` holds the member with the smaller flat index,
    in ascending order, so the draw order is reproducible.
    """
    ball = _ball_index(n_grid, radius)
    i, j = np.divmod(ball, n_grid)
    mirror = np.searchsorted(ball, ((-i) % n_grid) * n_grid + (-j) % n_grid)
    pos = np.arange(ball.size)
    out = pos[mirror == pos], pos[pos < mirror], mirror[pos < mirror]
    for arr in out:
        arr.setflags(write=False)
    return out


def _hermitian(pair: np.ndarray, real: np.ndarray, n_grid: int, radius: float) -> np.ndarray:
    """Packed ``(..., n_ball)`` Hermitian stack from the values of the plus
    modes (``pair``) and of the self-conjugate modes (``real``) of
    :func:`_half_lattice`: every minus mode is the conjugate of its plus
    mode.  Every draw on the ball is assembled here."""
    self_pos, plus, minus = _half_lattice(n_grid, float(radius))
    out = np.empty(pair.shape[:-1] + (2 * plus.size + self_pos.size,), dtype=np.complex128)
    out[..., plus] = pair
    out[..., minus] = np.conj(pair)
    out[..., self_pos] = real
    return out


def _sample_ball(gen, spec: GridSpec, radius: float, var: np.ndarray, n: int) -> np.ndarray:
    """n Hermitian Gaussian draws with per-mode variances ``var``, packed
    ``(..., n_ball)`` like the draws, returned ``(..., n, n_ball)``; one
    ``standard_normal`` call takes, per draw, the plus-mode real parts,
    imaginary parts and self-conjugate values, in that order.  A
    :class:`_StepRows` source adds its stream axis in front; a stack of n
    variance rows gives draw i row i."""
    self_pos, plus, _ = _half_lattice(spec.n_grid, float(radius))
    p, size = plus.size, 2 * plus.size + self_pos.size
    z = gen.standard_normal(n * size)
    z = z.reshape(z.shape[:-1] + (n, size))
    pair = np.sqrt(var[..., plus] / 2.0) * (z[..., :p] + 1j * z[..., p:2 * p])
    return _hermitian(pair, np.sqrt(var[..., self_pos]) * z[..., 2 * p:], spec.n_grid, radius)


def _sample_profile(gen, spec: GridSpec, radius: float, var: np.ndarray) -> np.ndarray:
    """One packed :func:`_sample_ball` draw; no command calls it, perfbench/tracer.py traces it."""
    return _sample_ball(gen, spec, radius, var, 1)[0]


@lru_cache(maxsize=32)
def _transition_tables(spec: GridSpec, dt: float):
    """Cached flow entries and Cholesky factors of Q_n(dt) for one step size."""
    flow = flow_entries(spec.dispersion, dt)
    qxx, qxv, qvv = transition_covariance(spec.dispersion, dt)
    l11 = np.sqrt(np.maximum(qxx, 0.0))
    l21 = np.where(l11 > 0, qxv / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(qvv - l21 * l21, 0.0))
    for arr in flow + (l11, l21, l22):
        arr.setflags(write=False)
    return flow, (l11, l21, l22)


@lru_cache(maxsize=32)
def _ball_tables(spec: GridSpec, dt: float, radius: float):
    """:func:`_transition_tables` for stacks packed on the ``|n| <= radius``
    ball: the flow entries in ``_ball_index`` order, and the Cholesky factors
    on the plus, then the self-conjugate modes of :func:`_half_lattice`."""
    flow, chol = _transition_tables(spec, dt)
    self_pos, plus, _ = _half_lattice(spec.n_grid, radius)
    ball = _ball_index(spec.n_grid, radius)
    half = ball[np.concatenate([plus, self_pos])]
    out = tuple(f.reshape(-1)[ball] for f in flow), tuple(f.reshape(-1)[half] for f in chol)
    for arr in out[0] + out[1]:
        arr.setflags(write=False)
    return out


def _draw_kick(gen, spec: GridSpec, radius: float, chol):
    """Correlated pair of Hermitian Gaussian stacks with covariance Q_n(dt),
    packed on the ``|n| <= radius`` ball; ``chol`` is ``_ball_tables(spec,
    dt, radius)[1]``.  One ``standard_normal`` call holds z1 and z2 (real,
    then imaginary parts) and then s1 and s2.  A :class:`_StepRows` source
    gives one kick per stream, stacked ``(n_streams, n_ball)``.  Every
    stepper that shares a stream draws through this one function, so coupled
    systems see identical noise."""
    a, b, c = chol
    p = _half_lattice(spec.n_grid, float(radius))[1].size
    s = a.size - p
    z = gen.standard_normal(4 * p + 2 * s)
    z1 = (z[..., :p] + 1j * z[..., p:2 * p]) / np.sqrt(2.0)
    z2 = (z[..., 2 * p:3 * p] + 1j * z[..., 3 * p:4 * p]) / np.sqrt(2.0)
    s1, s2 = z[..., 4 * p:4 * p + s], z[..., 4 * p + s:]
    ex = _hermitian(a[:p] * z1, a[p:] * s1, spec.n_grid, radius)
    ev = _hermitian(b[:p] * z1 + c[:p] * z2, b[p:] * s1 + c[p:] * s2, spec.n_grid, radius)
    return ex, ev


def stationary_ensemble(spec: GridSpec, M: float, root_seed: int, n: int,
                        base: int = 0) -> BallEnsemble:
    """Equilibrium pairs ``(phi0, phi1)`` with per-mode variances
    ``1/(m+|n|^2)`` and 1 on the ball ``|n| <= M``, packed, for components
    ``base, ..., base + n - 1``: each draws its position, then its velocity,
    from step 0 of its own ``INITIAL`` stream, all in one scatter."""
    streams = [NoiseStream(root_seed, base + j, NoiseKind.INITIAL) for j in range(n)]
    w = spec.dispersion.reshape(-1)[_ball_index(spec.n_grid, float(M))]
    pair = _sample_ball(_StepRows(streams, 0), spec, M, np.stack([1.0 / w, np.ones_like(w)]), 2)
    return BallEnsemble(spec, M, pair[:, 0], pair[:, 1])
