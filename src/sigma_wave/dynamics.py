"""Time integration of the coupled wave systems.

Four systems share one integrator: the linear damped flow and the noise
kick are applied exactly per mode, and the cubic drift goes through
:func:`~sigma_wave.propagator.etd2_step`, a two-stage exponential
integrator (predict with the constant-forcing Duhamel weight, correct with
the trapezoid weight), giving second order in dt.  The systems differ only
in how the drift is assembled:

* residual ensemble: the six-term renormalized coupling, which is the
  renormalized drift below of u = psi + v at ``alpha = sigma_M(t)``, one
  transform pair; the tests check it against the unfactored double loop,
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
ball its drift reads and writes, through real FFTs on the half spectrum
(``grid._to_grid``/``grid._to_coeffs``, which skip the columns the ball
leaves empty); the conjugate mirror supplies the other half plane.  No
stepper fills a full ``(n, n)`` coefficient grid.  A step's kicks are drawn
in one ``_draw_kick`` call, one row per stream.

The drifts keep their stacks in work slots (``grid._work``: "combined" for
the packed u = psi + v, "u" and "psi" for grid values, "product" for the
squares), form the products there with ``out=`` and return new packed
arrays.  Inside the work-array scope of a run (:func:`run_trajectory` opens
one, as do ``cli.coupled_distance`` and each slice of
``gibbs.evolve_gibbs_samples``) a step allocates no grid-size array; outside
one the slots are fresh arrays.  The bits are the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import (BallEnsemble, GridSpec, _ball_index, _to_coeffs, _to_grid, _work,
                   _workspace, write_csv)
from .noise import (NoiseKind, NoiseStream, RenormConstants, _ball_tables, _draw_kick,
                    _StepRows, stationary_ensemble)
from .propagator import duhamel_weights, etd2_step, flow_entries
from .wick import hermite  # noqa: F401  (unused; a traced site of perfbench/tracer.py)

__all__ = [
    "BlowupError",
    "HlsmState",
    "MeanFieldState",
    "TrajectoryRecord",
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


def _grid_values(pos: np.ndarray, n_grid: int, radius: float, slot: str) -> np.ndarray:
    """Grid values of a packed stack, in work slot ``slot``."""
    return _to_grid(pos, n_grid, radius,
                    out=_work(pos.shape[:-1] + (n_grid, n_grid), np.float64, slot))


@lru_cache(maxsize=64)
def _lift_slots(n_grid: int, radius: float, psi_radius: float) -> np.ndarray:
    """Where the ``|n| <= psi_radius`` modes sit on the packed ``|n| <= radius`` ball."""
    slots = np.searchsorted(_ball_index(n_grid, radius), _ball_index(n_grid, psi_radius))
    slots.setflags(write=False)
    return slots


def _ensemble_drift(v_pos: np.ndarray, psi: BallEnsemble, c: float, radius: float) -> np.ndarray:
    """The six-term coupling ``-(q + 2p + w - 2c/N) (v + psi)`` of the residual
    ensemble, q = <v^2>, p = <psi v>, w = <psi^2> - c, in mode space.  It is
    ``-(<u^2> - (N+2) c / N) u`` of u = v + psi, the renormalized drift at
    ``alpha = c``: psi is lifted onto the ball of v (work slot "combined")."""
    u = _work(v_pos.shape, np.complex128, "combined")
    np.copyto(u, v_pos)
    u[..., _lift_slots(psi.spec.n_grid, radius, psi.radius)] += psi.pos
    return _renormalized_drift(u, psi.spec.n_grid, c, radius)


def _meanfield_drift(v_pos: np.ndarray, psi: BallEnsemble, radius: float) -> np.ndarray:
    """Replica-averaged limit drift; every term carries v or a v-average."""
    vg = _grid_values(v_pos, psi.spec.n_grid, radius, "u")
    pg = _grid_values(psi.pos, psi.spec.n_grid, psi.radius, "psi")
    prod = _work(vg.shape, np.float64, "product")
    a = np.mean(np.multiply(vg, vg, out=prod), axis=0)
    b = np.mean(np.multiply(pg, vg, out=prod), axis=0)
    pg += vg
    pg *= -(a + 2.0 * b)
    return _to_coeffs(pg, radius)


def _renormalized_drift(pos: np.ndarray, n_grid: int, alpha: float, radius: float,
                        ug: np.ndarray | None = None) -> np.ndarray:
    """Gibbs drift of a packed ``(..., N, n_ball)`` stack; the mean runs over
    the component axis.  ``ug``, the stack's grid values when the caller has
    them, is read and left as it is."""
    n = pos.shape[-2]
    own = ug is None
    if own:
        ug = _grid_values(pos, n_grid, radius, "u")
    sq = np.multiply(ug, ug, out=_work(ug.shape, np.float64, "product"))
    mean_sq = np.mean(sq, axis=-3, keepdims=True)
    force = np.multiply(ug, -(mean_sq - (n + 2.0) * alpha / n), out=ug if own else sq)
    return _to_coeffs(force, radius)


@dataclass(frozen=True)
class _ResidualState:
    """Residual fields ``v`` coupled to per-component stochastic convolutions.

    The physical field of component j is ``psi_j + v_j``.  ``v`` lives on the
    ball its drift reads and writes: the 2/3-rule ball with dealiasing, every
    mode (radius ``inf``) without.  The convolutions are advanced by the
    exact transition and live in the ball and at the mass of the
    renormalization constants, so the Wick constants of ``renorm`` match the
    fields they renormalize.  ``psi`` starts from zero data with ``zero``,
    whose Wick constant ramps up as ``sigma_M(t)``, and from the Gaussian
    equilibrium with ``stationary``, whose Wick constant is ``alpha_M`` at
    every step.  The two systems below differ only in ``drift``.
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
        if not len(self.v):
            raise ValueError("need at least one component")
        if self.v.spec != self.psi.spec:
            raise ValueError("v and psi live on different grids")
        if self.renorm.m != self.v.spec.m:
            raise ValueError(f"renorm mass {self.renorm.m:g} != grid mass {self.v.spec.m:g}")
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
        renorm = replace(renorm, sigma=np.full(renorm.sigma.shape, renorm.alpha))
        state = cls.zero(spec, n_components, renorm, root_seed, dealias)
        return replace(state, psi=stationary_ensemble(spec, renorm.M, root_seed, n_components))

    def combined(self) -> BallEnsemble:
        """The physical ensemble u = psi + v, on the ball of v."""
        pos, vel = self.v.pos.copy(), self.v.vel.copy()
        slots = _lift_slots(self.v.spec.n_grid, self.v.radius, self.psi.radius)
        pos[:, slots] += self.psi.pos
        vel[:, slots] += self.psi.vel
        return BallEnsemble(self.v.spec, self.v.radius, pos, vel)


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


def _kick_pair(lead: tuple, streams, step: int, spec: GridSpec, dt: float,
               truncation: float) -> tuple:
    """The exact noise kicks of one step, a ``(pos, vel)`` pair of ``lead +
    (n_ball,)`` stacks packed on the ``|n| <= truncation`` ball.

    Streams run over the flattened ``lead`` axes, one per component, and a
    count that differs raises.  One ``_draw_kick`` call draws every stream's
    kick as a row of one stack.  Every stepper draws its noise here, so
    systems that share streams and a step index see identical kicks.
    """
    n_comp = math.prod(lead)
    if len(streams) != n_comp:
        raise ValueError(f"{len(streams)} noise streams for {n_comp} components")
    chol = _ball_tables(spec, dt, float(truncation))[1]
    ex, ev = _draw_kick(_StepRows(streams, step), spec, truncation, chol)
    return ex.reshape(lead + ex.shape[-1:]), ev.reshape(lead + ev.shape[-1:])


def step_linear_ensemble(ens: BallEnsemble, streams, step: int, dt: float,
                         kick: tuple | None = None) -> BallEnsemble:
    """One exact transition of the free damped wave ensemble on its ball.

    This is the coupling partner of :func:`step_renormalized_wave`: with the
    same streams and step index both consume identical noise.  A ``kick``
    pair from ``_kick_pair`` is added instead of drawing from ``streams``,
    so a coupled run draws each kick once and hands it to both steps.
    """
    s11, s12, s21, s22 = _ball_tables(ens.spec, dt, ens.radius)[0]
    if kick is None:
        kick = _kick_pair(ens.pos.shape[:-1], streams, step, ens.spec, dt, ens.radius)
    pos = s11 * ens.pos + s12 * ens.vel
    vel = s21 * ens.pos + s22 * ens.vel
    pos += kick[0]
    vel += kick[1]
    return BallEnsemble(ens.spec, ens.radius, pos, vel)


def step_hlsm(state: _ResidualState) -> _ResidualState:
    """Advance residuals by one step of ``state.renorm``: exact noise transition, ETD2 drift.

    Steps either residual system through its ``drift``; ``step_meanfield``
    is the same function.  Each drift stage reads the Wick constant at its
    own time, sigma_M(t) then sigma_M(t + dt), which keeps the step second
    order in dt for the zero-data schedule as well.
    """
    if state.step + 1 >= len(state.renorm.sigma):
        raise ValueError("renormalization table exhausted; build it with more steps")
    spec, radius, dt = state.v.spec, state.v.radius, state.renorm.dt
    c = state.renorm.sigma_at(state.step), state.renorm.sigma_at(state.step + 1)
    psi1 = step_linear_ensemble(state.psi, state.streams, state.step, dt)
    psi = (state.psi, psi1)
    pos, vel = etd2_step(state.v.pos, state.v.vel,
                         lambda p, stage: state.drift(p, psi[stage], c[stage], radius),
                         _ball_drift_tables(spec, dt, 0.5, radius))
    return replace(state, v=BallEnsemble(spec, radius, pos, vel),
                   psi=psi1, time=state.time + dt, step=state.step + 1)


step_meanfield = step_hlsm


def renormalized_drift(ens: BallEnsemble, alpha: float,
                       grid: np.ndarray | None = None) -> np.ndarray:
    """Gibbs drift in the original variables: ``-(<u^2> - (N+2)a/N) u_j``.

    This is the negative gradient of the interaction
    :func:`~sigma_wave.gibbs.gibbs_potential` with respect to the normalized
    L2 pairing: component j gets ``-(1/N)[(sum_k u_k^2) u_j - (N+2) a u_j]``.
    Criterion 05 checks the closed form against finite differences of the
    potential.

    Only the Hermitian modes of the ensemble's ball are read and written,
    packed alike, via the half spectrum: the sharp-cutoff system whose
    invariant measure is the truncated Gibbs ensemble (products must be
    grid-exact, the ``exact`` rule of ``grid._BALL_RULES``).  ``grid``, the
    positions' grid values (``grid._to_grid`` of ``ens.pos``) when the caller
    has them, saves their transform; it is not modified.
    """
    return _renormalized_drift(ens.pos, ens.spec.n_grid, alpha, ens.radius, grid)


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
    """Observables recorded along one run, and the state it ended in."""

    times: np.ndarray
    series: dict
    final: _ResidualState

    def to_csv(self, path) -> None:
        write_csv(path, ",".join(["t", *self.series]), zip(self.times, *self.series.values()))


def _step_count(T: float, dt: float, stride: int = 1) -> int:
    """Number of ``dt`` steps in ``T``; raises unless ``0 < dt <= T``, dt
    divides T and the stride, at least 1, divides the steps."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not 0 < dt <= T:
        raise ValueError(f"need 0 < dt <= T; got dt {dt}, T {T}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt {dt} does not divide T {T}")
    if n_steps % stride:
        raise ValueError(f"stride {stride} does not divide {n_steps} steps")
    return n_steps


def run_trajectory(state, n_steps: int, stride: int = 1, observe=None) -> TrajectoryRecord:
    """Integrate an HLSM or mean-field state, recording every ``stride`` steps.

    The steps are those of ``state.renorm``.  ``observe(state)`` returns the
    named values of one recording node, the same names at every node; they
    become the series.  The record keeps the state after the last step as
    ``final``; no other state is held.  Non-finite fields at a recording
    node, the start included, raise :class:`BlowupError`; nothing is clipped.
    The steps and the recording nodes share one work-array scope
    (``grid._workspace``), released on return.
    """
    if not isinstance(state, _ResidualState):
        raise TypeError(f"cannot integrate a {type(state).__name__}")
    if n_steps:  # a run of no steps has no T for _step_count to divide
        _step_count(n_steps * state.renorm.dt, state.renorm.dt, stride)
    times, rows = [], []

    def record(state) -> None:
        if not (np.all(np.isfinite(state.v.pos)) and np.all(np.isfinite(state.v.vel))):
            raise BlowupError(state.time)
        times.append(state.time)
        rows.append(observe(state) if observe else {})

    with _workspace():
        record(state)
        for k in range(n_steps):
            state = step_hlsm(state)
            if (k + 1) % stride == 0:
                record(state)
    series = {name: np.asarray([row[name] for row in rows]) for name in rows[0]}
    return TrajectoryRecord(np.asarray(times), series, state)
