"""Exact per-mode linear flow of ``d_tt + d_t + (m - Lap)`` and its Duhamel map.

Every mode ``n`` obeys the scalar ODE ``x'' + 2*gamma*x' + lam*x = F`` with
``lam = m + |n|^2`` and ``gamma = 1/2`` (``gamma = 0`` gives the undamped
conservative analogue used by the energy experiments).  With
``omega^2 = lam - gamma^2`` the kernel

    d(t) = exp(-gamma*t) * sin(t*omega)/omega

is the response to a unit velocity impulse; ``omega^2 <= 0`` occurs only for
``n = 0`` with ``m <= 1/4`` and is handled by continuing ``sin``/``cos`` to
``sinh``/``cosh`` (and to ``t``/``1`` at ``omega = 0``).

The one-step integrator is an exponential trapezoid rule: the homogeneous
2x2 flow is exact, the forcing is interpolated linearly inside the step,
and both weight vectors come from closed-form integrals of the flow, so the
only error is the quadrature error of the forcing, O(dt^3) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PairState, SpectralField

__all__ = [
    "ModeFrequency",
    "mode_frequency",
    "flow_entries",
    "apply_damped_propagator",
    "apply_homogeneous_flow",
    "duhamel_weights",
    "duhamel_increment",
    "etd2_step",
    "mode_quadratic_form",
]

_DEGENERATE_EPS = 1e-13


@dataclass(frozen=True)
class ModeFrequency:
    """Shifted dispersion ``omega = sqrt(m - 1/4 + |n|^2)`` of one mode."""

    omega_sq: float
    mode: tuple[int, int]

    @property
    def omega(self) -> complex:
        return complex(np.sqrt(complex(self.omega_sq)))

    @property
    def oscillatory(self) -> bool:
        """False only on the hyperbolic-degenerate branch (n = 0, m <= 1/4)."""
        return self.omega_sq > 0


def mode_frequency(n, m: float) -> ModeFrequency:
    if not m > 0:
        raise ValueError(f"mass m must be positive, got {m}")
    n1, n2 = int(n[0]), int(n[1])
    return ModeFrequency(m - 0.25 + n1 * n1 + n2 * n2, (n1, n2))


def _sc(t: float, omega_sq: np.ndarray) -> np.ndarray:
    """sin(t*omega)/omega continued through omega_sq <= 0."""
    w = np.asarray(omega_sq, dtype=np.float64)
    out = np.empty_like(w)
    osc = w > _DEGENERATE_EPS
    hyp = w < -_DEGENERATE_EPS
    flat = ~(osc | hyp)
    r = np.sqrt(w[osc])
    out[osc] = np.sin(t * r) / r
    g = np.sqrt(-w[hyp])
    out[hyp] = np.sinh(t * g) / g
    out[flat] = t
    return out


def _cc(t: float, omega_sq: np.ndarray) -> np.ndarray:
    """cos(t*omega) continued through omega_sq <= 0."""
    w = np.asarray(omega_sq, dtype=np.float64)
    out = np.empty_like(w)
    osc = w > _DEGENERATE_EPS
    hyp = w < -_DEGENERATE_EPS
    flat = ~(osc | hyp)
    out[osc] = np.cos(t * np.sqrt(w[osc]))
    out[hyp] = np.cosh(t * np.sqrt(-w[hyp]))
    out[flat] = 1.0
    return out


def flow_entries(lam, t: float, gamma: float = 0.5, decay: bool = True):
    """Entries of the per-mode 2x2 flow ``exp(t*[[0,1],[-lam,-2*gamma]])``.

    Returns ``(s11, s12, s21, s22)`` acting on ``(x, x')``; ``s12`` is the
    damped propagator kernel.  ``decay=False`` drops the ``exp(-gamma*t)``
    envelope (test-only variant; its per-mode quadratic form is conserved).
    """
    lam = np.asarray(lam, dtype=np.float64)
    w = lam - gamma * gamma
    sc = _sc(t, w)
    cc = _cc(t, w)
    env = np.exp(-gamma * t) if decay else 1.0
    s11 = env * (cc + gamma * sc)
    s12 = env * sc
    s21 = -lam * env * sc
    s22 = env * (cc - gamma * sc)
    return s11, s12, s21, s22


def apply_damped_propagator(f: SpectralField, t: float) -> SpectralField:
    """Kernel multiplier ``exp(-t/2) sin(t*omega_n)/omega_n`` per mode."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    w = f.spec.dispersion - 0.25
    mult = np.exp(-0.5 * t) * _sc(t, w)
    return SpectralField(f.spec, f.coeffs * mult, copy=False)


def apply_homogeneous_flow(state: PairState, t: float, gamma: float = 0.5) -> PairState:
    """Evolve a data pair by the homogeneous flow for time ``t``."""
    spec = state.spec
    s11, s12, s21, s22 = flow_entries(spec.dispersion, t, gamma)
    f, g = state.pos.coeffs, state.vel.coeffs
    return PairState(
        SpectralField(spec, s11 * f + s12 * g, copy=False),
        SpectralField(spec, s21 * f + s22 * g, copy=False),
    )


def duhamel_weights(lam, dt: float, gamma: float = 0.5):
    """Closed-form forcing weights of the exponential trapezoid step.

    ``g = integral_0^dt Flow(dt-s) B ds`` (B injects forcing into the
    velocity) and ``w1 = integral_0^dt (s/dt) Flow(dt-s) B ds``; the step is
    ``Flow(dt) y + g F0 + w1 (F1 - F0)``.  All four weights are rational in
    the flow entries, so the degenerate branch needs no special casing.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lam = np.asarray(lam, dtype=np.float64)
    s11, s12, s21, s22 = flow_entries(lam, dt, gamma)
    gx = (1.0 - s11) / lam
    gv = s12
    # H = integral of s * Flow(s) B ds, by parts against A^{-1}
    hx = (-dt * s11 + 2.0 * gamma * gx + s12) / lam
    hv = dt * s12 - gx
    w1x = gx - hx / dt
    w1v = gv - hv / dt
    return (gx, gv), (w1x, w1v)


def duhamel_increment(
    f0: SpectralField, f1: SpectralField, dt: float, gamma: float = 0.5
) -> PairState:
    """Approximate ``(integral_0^dt D(dt-s)F(s)ds, its d_t)`` from endpoint forcing:
    one :func:`etd2_step` from zero data with the forcing ``f0``, ``f1``."""
    spec = f0.spec
    if f1.spec != spec:
        raise ValueError("forcing fields on mismatched grids")
    (gx, gv), (w1x, w1v) = duhamel_weights(spec.dispersion, dt, gamma)
    tables = flow_entries(spec.dispersion, dt, gamma), (gx, gv, w1x, w1v)
    zero = np.zeros_like(f0.coeffs)
    forcing = (f0.coeffs, f1.coeffs)
    pos, vel = etd2_step(zero, zero, lambda _, stage: forcing[stage], tables)
    return PairState(SpectralField(spec, pos, copy=False), SpectralField(spec, vel, copy=False))


def etd2_step(pos, vel, drift, tables, kick=None):
    """One exponential-trapezoid step of ``x'' + 2 gamma x' + lam x = F``.

    The ETD2 core of every stepper (Hochbruck & Ostermann, Acta Numerica 19,
    2010).  ``tables`` is ``(flow, (gx, gv, w1x, w1v))`` at one ``dt``;
    ``drift(pos, stage)`` is the forcing at the left endpoint (stage 0) and
    at the predicted right endpoint (stage 1).  An optional ``(kick_x,
    kick_v)`` pair is added after the drift terms.  Returns ``(pos, vel)``.
    """
    (s11, s12, s21, s22), (gx, gv, w1x, w1v) = tables
    f0 = drift(pos, 0)
    new_pos = s11 * pos + s12 * vel
    new_vel = s21 * pos + s22 * vel
    new_pos += gx * f0
    new_vel += gv * f0
    pred = new_pos if kick is None else new_pos + kick[0]
    df = drift(pred, 1) - f0
    new_pos += w1x * df
    new_vel += w1v * df
    if kick is not None:
        new_pos += kick[0]
        new_vel += kick[1]
    return new_pos, new_vel


def mode_quadratic_form(lam, gamma, x, v):
    """``lam x^2 + 2 gamma x v + v^2``: conserved by the no-decay flow variant,
    and equal to ``exp(-2 gamma t)`` times its initial value under the true flow."""
    return lam * x * x + 2.0 * gamma * x * v + v * v
