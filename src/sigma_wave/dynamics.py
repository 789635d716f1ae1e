"""Time integration of the coupled wave systems.

Four systems share one integrator: the linear damped flow and the noise
kick are applied exactly per mode, and the cubic drift goes through
:func:`~sigma_wave.propagator.etd2_step`, a two-stage exponential
integrator (predict with the constant-forcing Duhamel weight, correct with
the trapezoid weight), giving second order in dt.  The systems differ only
in how the drift is assembled:

* residual ensemble: the six-term renormalized coupling, which collapses
  algebraically to ``-(q + 2p + w - 2c/N) (v_j + psi_j)`` with the three
  ensemble means q = <v^2>, p = <psi v>, w = <H_2(psi; c)>; the tests
  check the factored form against the unfactored double loop,
* replica mean field: ``-(<v^2> + 2<psi v>) (v_r + psi_r)`` with replica
  averages in place of expectations,
* renormalized interacting wave in the original variables:
  ``-(<u^2> - (N+2) c / N) u_j``, the drift whose invariant measure is the
  truncated Gibbs ensemble,
* conservative undamped wave: ``-<u^2> u_j``, no noise, energy-conserving;
  this is the renormalized drift at ``alpha = 0``.

Components are vectorized (stacked real FFTs), which makes reductions
exactly deterministic; parallelism across runs lives in the experiment layer.
Every system steps packed ``(..., N, n_ball)`` stacks (``grid.BallEnsemble``)
with packed kicks: psi and the free ensemble on their noise ball, the
residual ``v`` on the 2/3-rule ball (every mode without dealiasing), the
interacting waves on their truncation ball.  The ball a stack carries is the
ball its drift reads and writes, through ``irfft2``/``rfft2`` on the half
spectrum; the conjugate mirror supplies the other half plane.  No stepper
fills a full ``(n, n)`` coefficient grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import BallEnsemble, GridSpec, _ball_index, _to_coeffs, _to_grid
from .noise import (NoiseKind, NoiseStream, RenormConstants, _ball_tables, _draw_kick,
                    stationary_ensemble)
from .propagator import duhamel_weights, etd2_step, flow_entries
from .wick import hermite  # noqa: F401  (unused; a traced site of perfbench/tracer.py)

__all__ = [
    "BlowupError",
    "HlsmState",
    "MeanFieldState",
    "TrajectoryRecord",
    "hlsm_rhs",
    "step_hlsm",
    "step_meanfield",
    "step_linear_ensemble",
    "renormalized_drift",
    "step_renormalized_wave",
    "step_deterministic_nlw",
    "step_deterministic_meanfield",
    "run_trajectory",
]


class BlowupError(RuntimeError):
    """Raised when a trajectory leaves the representable range.

    A candidate blow-up is reported, never clipped; ``time`` is the first
    recording node at which a non-finite value appeared.
    """

    def __init__(self, time: float):
        super().__init__(f"non-finite field values at t = {time:g}")
        self.time = time


@lru_cache(maxsize=32)
def _drift_tables(spec: GridSpec, dt: float, gamma: float):
    flow = flow_entries(spec.dispersion, dt, gamma=gamma)
    (gx, gv), (w1x, w1v) = duhamel_weights(spec.dispersion, dt, gamma=gamma)
    for arr in flow + (gx, gv, w1x, w1v):
        arr.setflags(write=False)
    return flow, (gx, gv, w1x, w1v)


@lru_cache(maxsize=64)
def _ball_drift_tables(spec: GridSpec, dt: float, gamma: float, radius: float):
    """:func:`_drift_tables` gathered on the ``|n| <= radius`` ball, in
    ``_ball_index`` order, for packed stacks."""
    idx = _ball_index(spec.n_grid, radius)
    flow, weights = _drift_tables(spec, dt, gamma)
    out = tuple(f.reshape(-1)[idx] for f in flow), tuple(w.reshape(-1)[idx] for w in weights)
    for arr in out[0] + out[1]:
        arr.setflags(write=False)
    return out


def _ensemble_drift(v_pos: np.ndarray, psi: BallEnsemble, c: float, radius: float) -> np.ndarray:
    """Factored six-term coupling for the residual ensemble, in mode space."""
    n, n_grid = v_pos.shape[0], psi.spec.n_grid
    vg = _to_grid(v_pos, n_grid, radius)
    pg = _to_grid(psi.pos, n_grid, psi.radius)
    q = np.mean(vg * vg, axis=0)
    p = np.mean(pg * vg, axis=0)
    w = np.mean(pg * pg, axis=0) - c
    g = q + 2.0 * p + w - 2.0 * c / n
    return _to_coeffs(-g[None] * (vg + pg), radius)


def _meanfield_drift(v_pos: np.ndarray, psi: BallEnsemble, radius: float) -> np.ndarray:
    """Replica-averaged limit drift; every term carries v or a v-average."""
    vg = _to_grid(v_pos, psi.spec.n_grid, radius)
    pg = _to_grid(psi.pos, psi.spec.n_grid, psi.radius)
    a = np.mean(vg * vg, axis=0)
    b = np.mean(pg * vg, axis=0)
    return _to_coeffs(-(a + 2.0 * b)[None] * (vg + pg), radius)


def _renormalized_drift(pos: np.ndarray, n_grid: int, alpha: float, radius: float) -> np.ndarray:
    """Gibbs drift of a packed ``(..., N, n_ball)`` stack; the mean runs over
    the component axis."""
    n = pos.shape[-2]
    ug = _to_grid(pos, n_grid, radius)
    mean_sq = np.mean(ug * ug, axis=-3, keepdims=True)
    ug *= -(mean_sq - (n + 2.0) * alpha / n)  # in place: one grid stack fewer per call
    return _to_coeffs(ug, radius)


@dataclass(frozen=True)
class _ResidualState:
    """Residual fields ``v`` coupled to per-component stochastic convolutions.

    The physical field of component j is ``psi_j + v_j``.  ``v`` lives on the
    ball its drift reads and writes: the 2/3-rule ball with dealiasing, every
    mode (radius ``inf``) without.  The convolutions are advanced by the
    exact transition and live in the ball of the renormalization truncation,
    so the Wick constants of ``renorm`` match the fields they renormalize.
    ``psi`` starts from zero data with ``zero`` and from the Gaussian
    equilibrium with ``stationary``.  The two systems below differ only in
    ``drift``.
    """

    v: BallEnsemble
    psi: BallEnsemble
    streams: tuple
    time: float
    step: int
    renorm: RenormConstants

    def __post_init__(self) -> None:
        if not (len(self.v) == len(self.psi) == len(self.streams)):
            raise ValueError(
                f"component mismatch: v has {len(self.v)}, psi has "
                f"{len(self.psi)}, streams has {len(self.streams)}"
            )
        if self.v.spec != self.psi.spec:
            raise ValueError("v and psi live on different grids")
        if self.psi.radius != self.renorm.M:
            raise ValueError(f"psi lives on the ball {self.psi.radius:g}, not M = {self.renorm.M}")
        if self.psi.radius > self.v.radius:
            raise ValueError(f"M = {self.renorm.M} exceeds the ball {self.v.radius:g} of v, "
                             "the dealias radius of the grid with dealiasing on")

    @property
    def n_components(self) -> int:
        return len(self.v)

    @classmethod
    def zero(cls, spec: GridSpec, n_components: int, renorm: RenormConstants,
             root_seed: int, dealias: bool = True):
        streams = tuple(NoiseStream(root_seed, j, NoiseKind.DRIVE) for j in range(n_components))
        radius = spec.dealias_radius if dealias else np.inf
        return cls(BallEnsemble.zeros(spec, radius, n_components),
                   BallEnsemble.zeros(spec, renorm.M, n_components),
                   streams, 0.0, 0, renorm)

    @classmethod
    def stationary(cls, spec: GridSpec, n_components: int, renorm: RenormConstants,
                   root_seed: int, dealias: bool = True):
        state = cls.zero(spec, n_components, renorm, root_seed, dealias)
        return replace(state, psi=stationary_ensemble(spec, renorm.M, root_seed, n_components))

    def combined(self) -> BallEnsemble:
        """The physical ensemble u = psi + v, on the ball of v."""
        psi = BallEnsemble.zeros(self.v.spec, self.v.radius, len(self.v))
        slots = np.searchsorted(self.v.index, self.psi.index)
        psi.pos[:, slots], psi.vel[:, slots] = self.psi.pos, self.psi.vel
        return BallEnsemble(self.v.spec, self.v.radius, self.v.pos + psi.pos,
                            self.v.vel + psi.vel)


class HlsmState(_ResidualState):
    """Residual ensemble of the N-component system; six-term coupled drift."""

    def drift(self, v_pos: np.ndarray, psi: BallEnsemble, c: float, radius: float) -> np.ndarray:
        return _ensemble_drift(v_pos, psi, c, radius)


class MeanFieldState(_ResidualState):
    """Exchangeable replicas of the limiting one-body system.

    Expectations in the limit drift are estimated by replica averages; the
    estimator error is O(R^{-1/2}) and orthogonal to the N-limit studied by
    the convergence experiments.
    """

    def drift(self, v_pos: np.ndarray, psi: BallEnsemble, c: float, radius: float) -> np.ndarray:
        return _meanfield_drift(v_pos, psi, radius)


def hlsm_rhs(state: _ResidualState) -> np.ndarray:
    """Drift of either residual system (``HlsmState`` or ``MeanFieldState``),
    packed on the ball of ``v``."""
    c = state.renorm.sigma_at(state.step)
    return state.drift(state.v.pos, state.psi, c, state.v.radius)


def _add_kicks(pos: np.ndarray, vel: np.ndarray, streams, step: int, spec: GridSpec,
               truncation: float, chol) -> None:
    """Add one exact noise kick per stream into ``pos``/``vel``, in place.

    The stacks are packed ``(..., n_ball)`` on the ``|n| <= truncation``
    ball; streams run over their flattened leading axes, one per component,
    and a count that differs raises.  Every stepper draws its noise here, so
    systems that share streams and a step index see identical kicks.
    """
    n_comp = math.prod(pos.shape[:-1])
    if len(streams) != n_comp:
        raise ValueError(f"{len(streams)} noise streams for {n_comp} components")
    for idx, stream in zip(np.ndindex(pos.shape[:-1]), streams):
        ex, ev = _draw_kick(stream.generator(step), spec, truncation, chol)
        pos[idx] += ex
        vel[idx] += ev


def _kick_pair(lead: tuple, streams, step: int, spec: GridSpec, dt: float,
               truncation: float) -> tuple:
    """The exact noise kicks of one step, drawn into a zeroed ``(pos, vel)``
    pair of ``lead + (n_ball,)`` stacks packed on the ``|n| <= truncation`` ball."""
    shape = lead + (_ball_index(spec.n_grid, float(truncation)).size,)
    kick = (np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))
    _add_kicks(*kick, streams, step, spec, truncation, _ball_tables(spec, dt, float(truncation))[1])
    return kick


def step_linear_ensemble(ens: BallEnsemble, streams, step: int, dt: float,
                         kick: tuple | None = None) -> BallEnsemble:
    """One exact transition of the free damped wave ensemble on its ball.

    This is the coupling partner of :func:`step_renormalized_wave`: with the
    same streams and step index both consume identical noise.  A ``kick``
    pair from ``_kick_pair`` is added instead of drawing from ``streams``,
    so a coupled run draws each kick once and hands it to both steps.
    """
    (s11, s12, s21, s22), chol = _ball_tables(ens.spec, dt, ens.radius)
    pos = s11 * ens.pos + s12 * ens.vel
    vel = s21 * ens.pos + s22 * ens.vel
    if kick is None:
        _add_kicks(pos, vel, streams, step, ens.spec, ens.radius, chol)
    else:
        pos += kick[0]
        vel += kick[1]
    return BallEnsemble(ens.spec, ens.radius, pos, vel)


def step_hlsm(state: _ResidualState, dt: float) -> _ResidualState:
    """Advance residuals by one step: exact noise transition, ETD2 drift.

    Steps either residual system through its ``drift``; ``step_meanfield``
    is the same function.  Each drift stage reads the Wick constant at its
    own time, sigma_M(t) then sigma_M(t + dt), which keeps the step second
    order in dt for the zero-data schedule as well.
    """
    if abs(dt - state.renorm.dt) > 1e-12 * max(1.0, dt):
        raise ValueError(f"dt = {dt} does not match the renormalization grid dt = {state.renorm.dt}")
    if state.step + 1 >= len(state.renorm.sigma):
        raise ValueError("renormalization table exhausted; build it with more steps")
    spec, radius = state.v.spec, state.v.radius
    c = state.renorm.sigma_at(state.step), state.renorm.sigma_at(state.step + 1)
    psi1 = step_linear_ensemble(state.psi, state.streams, state.step, dt)
    psi = (state.psi, psi1)
    pos, vel = etd2_step(state.v.pos, state.v.vel,
                         lambda p, stage: state.drift(p, psi[stage], c[stage], radius),
                         _ball_drift_tables(spec, dt, 0.5, radius))
    return replace(state, v=BallEnsemble(spec, radius, pos, vel),
                   psi=psi1, time=state.time + dt, step=state.step + 1)


step_meanfield = step_hlsm


def renormalized_drift(ens: BallEnsemble, alpha: float) -> np.ndarray:
    """Gibbs drift in the original variables: ``-(<u^2> - (N+2)a/N) u_j``.

    This is the negative gradient of the interaction
    :func:`~sigma_wave.gibbs.gibbs_potential` with respect to the normalized
    L2 pairing: component j gets ``-(1/N)[(sum_k u_k^2) u_j - (N+2) a u_j]``.
    Criterion 05 checks the closed form against finite differences of the
    potential.

    Only the Hermitian modes of the ensemble's ball are read and written,
    packed alike, via the half spectrum: the sharp-cutoff system whose
    invariant measure is the truncated Gibbs ensemble (products must be
    grid-exact: n_grid > 4M).
    """
    return _renormalized_drift(ens.pos, ens.spec.n_grid, alpha, ens.radius)


def step_renormalized_wave(ens: BallEnsemble, streams, step: int, dt: float, alpha: float,
                           kick: tuple | None = None) -> BallEnsemble:
    """One step of the interacting damped wave in the original variables.

    Exact linear flow and noise kick plus ETD2 on the renormalized drift,
    all on the ensemble's ball; shares noise draws with
    :func:`step_linear_ensemble` by construction.  A batched ensemble takes
    one stream per leading index, in row-major order.  A ``kick`` pair from
    ``_kick_pair`` replaces the draw from ``streams``, so the coupled run
    passes one draw to both steps.
    """
    spec, radius = ens.spec, ens.radius
    if kick is None:
        kick = _kick_pair(ens.pos.shape[:-1], streams, step, spec, dt, radius)
    pos, vel = etd2_step(ens.pos, ens.vel,
                         lambda p, _: _renormalized_drift(p, spec.n_grid, alpha, radius),
                         _ball_drift_tables(spec, dt, 0.5, radius), kick)
    return BallEnsemble(spec, radius, pos, vel)


def step_deterministic_nlw(ens: BallEnsemble, dt: float) -> BallEnsemble:
    """Undamped conservative wave with the empirical-average coupling, on the
    ensemble's ball (the 2/3-rule ball dealiases; radius ``inf`` keeps every mode).

    Read over replicas instead of components it is the conservative
    mean-field wave, whose replica averages estimate E[u^2].
    """
    pos, vel = etd2_step(ens.pos, ens.vel,
                         lambda p, _: _renormalized_drift(p, ens.spec.n_grid, 0.0, ens.radius),
                         _ball_drift_tables(ens.spec, dt, 0.0, ens.radius))
    return BallEnsemble(ens.spec, ens.radius, pos, vel)


step_deterministic_meanfield = step_deterministic_nlw


@dataclass
class TrajectoryRecord:
    """Recorded observables (and optionally states) along one run."""

    times: np.ndarray
    series: dict
    states: list

    def to_csv(self, path) -> None:
        names = list(self.series)
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.series[k][i]:.17g}" for k in names]
                fh.write(",".join(row) + "\n")


def run_trajectory(state, dt: float, n_steps: int, stride: int = 1,
                   observe=None, keep_states: bool = False) -> TrajectoryRecord:
    """Integrate an HLSM or mean-field state, recording every ``stride`` steps.

    ``observe(state)`` returns the named values of one recording node, the
    same names at every node; they become the series.  Non-finite fields at
    a recording node, the start included, raise :class:`BlowupError`;
    nothing is clipped.
    """
    if n_steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide n_steps {n_steps}")
    if not isinstance(state, _ResidualState):
        raise TypeError(f"cannot integrate a {type(state).__name__}")
    times, rows, states = [], [], []

    def record(state) -> None:
        if not (np.all(np.isfinite(state.v.pos)) and np.all(np.isfinite(state.v.vel))):
            raise BlowupError(state.time)
        times.append(state.time)
        rows.append(observe(state) if observe else {})
        if keep_states:
            states.append(state)

    record(state)
    for k in range(n_steps):
        state = step_hlsm(state, dt)
        if (k + 1) % stride == 0:
            record(state)
    series = {name: np.asarray([row[name] for row in rows]) for name in rows[0]}
    return TrajectoryRecord(np.asarray(times), series, states)
