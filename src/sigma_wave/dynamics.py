"""Time integration of the coupled wave systems.

Four systems share one integrator: the linear damped flow and the noise
kick are applied exactly per mode, and the cubic drift goes through
:func:`~sigma_wave.propagator.etd2_step`, a two-stage exponential
integrator (predict with the constant-forcing Duhamel weight, correct with
the trapezoid weight), giving second order in dt.  The systems differ only
in how the drift is assembled:

* residual ensemble: the six-term renormalized coupling, which collapses
  algebraically to ``-(q + 2p + w - 2c/N) (v_j + psi_j)`` with the three
  ensemble means q = <v^2>, p = <psi v>, w = <H_2(psi; c)>; the unfactored
  double loop is kept as ``hlsm_rhs_reference`` and unit-tested against the
  factored form,
* replica mean field: ``-(<v^2> + 2<psi v>) (v_r + psi_r)`` with replica
  averages in place of expectations,
* renormalized interacting wave in the original variables:
  ``-(<u^2> - (N+2) c / N) u_j``, the drift whose invariant measure is the
  truncated Gibbs ensemble,
* conservative undamped wave: ``-<u^2> u_j``, no noise, energy-conserving.

Components are vectorized (stacked FFTs), which makes reductions exactly
deterministic; parallelism across runs lives in the experiment layer.

Pointwise products are formed on the grid after a 2/3-rule truncation by
default; the no-dealias mode exists because exact products are wanted when
comparing against mode-space oracles and when the product of ball-limited
fields is representable on the grid anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import ComponentEnsemble, GridSpec, ball_mask, dealias_mask
from .noise import NoiseKind, NoiseStream, RenormConstants, _draw_kick, _transition_tables, sample_mu1_mu0_pair
from .propagator import duhamel_weights, etd2_step, flow_entries
from .wick import hermite

__all__ = [
    "BlowupError",
    "HlsmState",
    "MeanFieldState",
    "TrajectoryRecord",
    "hlsm_rhs",
    "hlsm_rhs_reference",
    "step_hlsm",
    "meanfield_rhs",
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


def _grids(coeff_stack: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(coeff_stack, norm="forward").real


def _coeffs(grid_stack: np.ndarray, mask) -> np.ndarray:
    out = np.fft.fft2(grid_stack, norm="forward")
    if mask is not None:
        out = np.where(mask, out, 0.0)
    return out


def _masked(coeff_stack: np.ndarray, mask) -> np.ndarray:
    if mask is None:
        return coeff_stack
    return np.where(mask, coeff_stack, 0.0)


def _ensemble_drift(v_pos: np.ndarray, psi_pos: np.ndarray, c: float, mask) -> np.ndarray:
    """Factored six-term coupling for the residual ensemble, in mode space."""
    n = v_pos.shape[0]
    vg = _grids(_masked(v_pos, mask))
    pg = _grids(_masked(psi_pos, mask))
    q = np.mean(vg * vg, axis=0)
    p = np.mean(pg * vg, axis=0)
    w = np.mean(pg * pg, axis=0) - c
    g = q + 2.0 * p + w - 2.0 * c / n
    return _coeffs(-g[None] * (vg + pg), mask)


def _meanfield_drift(v_pos: np.ndarray, psi_pos: np.ndarray, mask) -> np.ndarray:
    """Replica-averaged limit drift; every term carries v or a v-average."""
    vg = _grids(_masked(v_pos, mask))
    pg = _grids(_masked(psi_pos, mask))
    a = np.mean(vg * vg, axis=0)
    b = np.mean(pg * vg, axis=0)
    return _coeffs(-(a + 2.0 * b)[None] * (vg + pg), mask)


def _conservative_drift(pos: np.ndarray, mask) -> np.ndarray:
    ug = _grids(_masked(pos, mask))
    return _coeffs(-np.mean(ug * ug, axis=0)[None] * ug, mask)


def _renormalized_drift(pos: np.ndarray, alpha: float, mask) -> np.ndarray:
    """Gibbs drift of a ``(..., N, n, n)`` stack; the mean runs over axis -3."""
    n = pos.shape[-3]
    ug = _grids(_masked(pos, mask))
    mean_sq = np.mean(ug * ug, axis=-3, keepdims=True)
    shift = (n + 2.0) * alpha / n
    return _coeffs(-(mean_sq - shift) * ug, mask)


def _mask_for(state) -> np.ndarray | None:
    return dealias_mask(state.v.spec) if state.dealias else None


@dataclass(frozen=True)
class _ResidualState:
    """Residual fields ``v`` coupled to per-component stochastic convolutions.

    The physical field of component j is ``psi_j + v_j``; the convolutions
    are advanced by the exact transition and live in the mode ball of the
    renormalization truncation, so the Wick constants of ``renorm`` match
    the fields they renormalize.  ``psi`` starts from zero data with
    ``zero`` and from the Gaussian equilibrium with ``stationary``.  The
    two systems below differ only in ``drift``.
    """

    v: ComponentEnsemble
    psi: ComponentEnsemble
    streams: tuple
    time: float
    step: int
    renorm: RenormConstants
    dealias: bool = True

    def __post_init__(self) -> None:
        if not (len(self.v) == len(self.psi) == len(self.streams)):
            raise ValueError(
                f"component mismatch: v has {len(self.v)}, psi has "
                f"{len(self.psi)}, streams has {len(self.streams)}"
            )
        if self.v.spec != self.psi.spec:
            raise ValueError("v and psi live on different grids")

    @property
    def n_components(self) -> int:
        return len(self.v)

    @classmethod
    def zero(cls, spec: GridSpec, n_components: int, renorm: RenormConstants,
             root_seed: int, dealias: bool = True):
        streams = tuple(NoiseStream(root_seed, j, NoiseKind.DRIVE) for j in range(n_components))
        return cls(ComponentEnsemble.zeros(spec, n_components),
                   ComponentEnsemble.zeros(spec, n_components),
                   streams, 0.0, 0, renorm, dealias)

    @classmethod
    def stationary(cls, spec: GridSpec, n_components: int, renorm: RenormConstants,
                   root_seed: int, dealias: bool = True):
        state = cls.zero(spec, n_components, renorm, root_seed, dealias)
        pairs = [sample_mu1_mu0_pair(spec, renorm.M, NoiseStream(root_seed, j, NoiseKind.INITIAL))
                 for j in range(n_components)]
        return replace(state, psi=ComponentEnsemble.from_components(pairs))

    def combined(self) -> ComponentEnsemble:
        """The physical ensemble u = psi + v."""
        return ComponentEnsemble(self.v.spec, self.v.pos + self.psi.pos,
                                 self.v.vel + self.psi.vel, copy=False)


class HlsmState(_ResidualState):
    """Residual ensemble of the N-component system; six-term coupled drift."""

    def drift(self, v_pos: np.ndarray, psi_pos: np.ndarray, c: float, mask) -> np.ndarray:
        return _ensemble_drift(v_pos, psi_pos, c, mask)


class MeanFieldState(_ResidualState):
    """Exchangeable replicas of the limiting one-body system.

    Expectations in the limit drift are estimated by replica averages; the
    estimator error is O(R^{-1/2}) and orthogonal to the N-limit studied by
    the convergence experiments.
    """

    def drift(self, v_pos: np.ndarray, psi_pos: np.ndarray, c: float, mask) -> np.ndarray:
        return _meanfield_drift(v_pos, psi_pos, mask)


def hlsm_rhs(state: _ResidualState) -> np.ndarray:
    """Drift of a residual system, as a stacked coefficient array;
    ``meanfield_rhs`` is the same function."""
    c = state.renorm.sigma_at(state.step)
    return state.drift(state.v.pos, state.psi.pos, c, _mask_for(state))


meanfield_rhs = hlsm_rhs


def hlsm_rhs_reference(state: HlsmState) -> np.ndarray:
    """Unfactored six-term double loop; the oracle for ``hlsm_rhs``."""
    c = state.renorm.sigma_at(state.step)
    mask = _mask_for(state)
    vg = _grids(_masked(state.v.pos, mask))
    pg = _grids(_masked(state.psi.pos, mask))
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
    return _coeffs(out, mask)


def _add_kicks(pos: np.ndarray, vel: np.ndarray, streams, step: int, spec: GridSpec,
               truncation: float, chol) -> None:
    """Add one exact noise kick per stream into ``pos``/``vel``, in place.

    Streams run over the flattened leading axes of the ``(..., n, n)``
    stacks, one per component; a count that differs raises.  Every stepper
    draws its noise here, so systems that share streams and a step index see
    identical kicks.
    """
    n_comp = math.prod(pos.shape[:-2])
    if len(streams) != n_comp:
        raise ValueError(f"{len(streams)} noise streams for {n_comp} components")
    for idx, stream in zip(np.ndindex(pos.shape[:-2]), streams):
        ex, ev = _draw_kick(stream.generator(step), spec, truncation, chol)
        pos[idx] += ex
        vel[idx] += ev


def _kick_pair(pos: np.ndarray, streams, step: int, spec: GridSpec, dt: float,
               truncation: float) -> tuple:
    """The exact noise kicks of one step, drawn into a zeroed ``(pos, vel)``
    pair shaped like ``pos``."""
    kick = (np.zeros_like(pos), np.zeros_like(pos))
    _add_kicks(*kick, streams, step, spec, truncation, _transition_tables(spec, dt)[1])
    return kick


def step_linear_ensemble(ens: ComponentEnsemble, streams, step: int, dt: float,
                         truncation: float, kick: tuple | None = None) -> ComponentEnsemble:
    """One exact transition of the free damped wave ensemble.

    This is the coupling partner of :func:`step_renormalized_wave`: with the
    same streams and step index both consume identical noise.  A ``kick``
    pair from ``_kick_pair`` is added instead of drawing from ``streams``,
    so a coupled run draws each kick once and hands it to both steps.
    """
    spec = ens.spec
    (s11, s12, s21, s22), chol = _transition_tables(spec, dt)
    pos = s11 * ens.pos + s12 * ens.vel
    vel = s21 * ens.pos + s22 * ens.vel
    if kick is None:
        _add_kicks(pos, vel, streams, step, spec, truncation, chol)
    else:
        pos += kick[0]
        vel += kick[1]
    return ComponentEnsemble(spec, pos, vel, copy=False)


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
    spec = state.v.spec
    c = state.renorm.sigma_at(state.step), state.renorm.sigma_at(state.step + 1)
    mask = _mask_for(state)
    psi1 = step_linear_ensemble(state.psi, state.streams, state.step, dt, float(state.renorm.M))
    psi = (state.psi.pos, psi1.pos)
    pos, vel = etd2_step(state.v.pos, state.v.vel,
                         lambda p, stage: state.drift(p, psi[stage], c[stage], mask),
                         _drift_tables(spec, dt, 0.5))
    return replace(state, v=ComponentEnsemble(spec, pos, vel, copy=False),
                   psi=psi1, time=state.time + dt, step=state.step + 1)


step_meanfield = step_hlsm


def renormalized_drift(ens: ComponentEnsemble, alpha: float,
                       truncation: float | None = None) -> np.ndarray:
    """Gibbs drift in the original variables: ``-(<u^2> - (N+2)a/N) u_j``.

    With ``truncation`` set, inputs and output are projected to the mode
    ball, which is the sharp-cutoff system whose invariant measure is the
    truncated Gibbs ensemble (products must be grid-exact: n_grid > 4M).
    """
    mask = ball_mask(ens.spec, truncation) if truncation is not None else None
    return _renormalized_drift(ens.pos, alpha, mask)


def _renormalized_step(pos: np.ndarray, vel: np.ndarray, streams, step: int, spec: GridSpec,
                       dt: float, alpha: float, truncation: float | None, kick=None):
    """:func:`step_renormalized_wave` on ``(..., N, n, n)`` stacks, one stream
    per leading index in row-major order."""
    mask = None
    if truncation is not None:
        mask = ball_mask(spec, truncation)
        if kick is None:
            kick = _kick_pair(pos, streams, step, spec, dt, truncation)
    return etd2_step(pos, vel, lambda p, _: _renormalized_drift(p, alpha, mask),
                     _drift_tables(spec, dt, 0.5), kick)


def step_renormalized_wave(ens: ComponentEnsemble, streams, step: int, dt: float,
                           alpha: float, truncation: float | None,
                           kick: tuple | None = None) -> ComponentEnsemble:
    """One step of the interacting damped wave in the original variables.

    Exact linear flow and noise kick plus ETD2 on the renormalized drift;
    shares noise draws with :func:`step_linear_ensemble` by construction.
    A ``kick`` pair from ``_kick_pair`` replaces the draw from ``streams``,
    so the coupled run passes one draw to both steps.  ``truncation=None``
    disables both the projection and the drawn noise (the deterministic
    damped system, used by integrator-order tests).
    """
    pos, vel = _renormalized_step(ens.pos, ens.vel, streams, step, ens.spec, dt,
                                  alpha, truncation, kick)
    return ComponentEnsemble(ens.spec, pos, vel, copy=False)


def step_deterministic_nlw(ens: ComponentEnsemble, dt: float, dealias: bool = True) -> ComponentEnsemble:
    """Undamped conservative wave with the empirical-average coupling.

    Read over replicas instead of components it is the conservative
    mean-field wave, whose replica averages estimate E[u^2].
    """
    mask = dealias_mask(ens.spec) if dealias else None
    pos, vel = etd2_step(ens.pos, ens.vel, lambda p, _: _conservative_drift(p, mask),
                         _drift_tables(ens.spec, dt, 0.0))
    return ComponentEnsemble(ens.spec, pos, vel, copy=False)


step_deterministic_meanfield = step_deterministic_nlw


@dataclass
class TrajectoryRecord:
    """Recorded observables (and optionally states) along one run."""

    times: np.ndarray
    series: dict
    states: list

    def running_max(self, name: str) -> float:
        return float(np.max(self.series[name]))

    def to_csv(self, path) -> None:
        names = list(self.series)
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.series[k][i]:.17g}" for k in names]
                fh.write(",".join(row) + "\n")


def run_trajectory(state, dt: float, n_steps: int, stride: int = 1,
                   observables: dict | None = None,
                   keep_states: bool = False) -> TrajectoryRecord:
    """Integrate an HLSM or mean-field state, recording every ``stride`` steps.

    Observables map names to functions of the state.  Non-finite fields at a
    recording node raise :class:`BlowupError`; nothing is clipped.
    """
    if n_steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide n_steps {n_steps}")
    if not isinstance(state, _ResidualState):
        raise TypeError(f"cannot integrate a {type(state).__name__}")
    stepper = step_meanfield if isinstance(state, MeanFieldState) else step_hlsm
    observables = observables or {}
    times = [state.time]
    series = {k: [fn(state)] for k, fn in observables.items()}
    states = [state] if keep_states else []
    for k in range(n_steps):
        state = stepper(state, dt)
        if (k + 1) % stride == 0:
            if not (np.all(np.isfinite(state.v.pos)) and np.all(np.isfinite(state.v.vel))):
                raise BlowupError(state.time)
            times.append(state.time)
            for name, fn in observables.items():
                series[name].append(fn(state))
            if keep_states:
                states.append(state)
    return TrajectoryRecord(np.asarray(times),
                            {k: np.asarray(v) for k, v in series.items()}, states)
