"""Exact per-mode linear flow of ``d_tt + d_t + (m - Lap)`` and its Duhamel map.

Every mode ``n`` obeys the scalar ODE ``x'' + 2*gamma*x' + lam*x = F`` with
``lam = m + |n|^2`` and ``gamma = 1/2`` (``gamma = 0`` gives the undamped
conservative analogue used by the energy experiments).  With
``omega^2 = lam - gamma^2`` the kernel

    d(t) = exp(-gamma*t) * sin(t*omega)/omega

is the response to a unit velocity impulse; ``omega^2 <= 0`` occurs only for
``n = 0`` with ``m <= 1/4`` and is handled by continuing ``sin``/``cos`` to
``sinh``/``cosh`` (and, within 1e-13 of ``omega = 0``, to their first two
Taylor terms in ``omega^2``).

Three public functions make up the module: :func:`flow_entries` gives the
homogeneous 2x2 flow (its ``s12`` entry is the kernel), :func:`duhamel_weights`
the forcing weights of one step, and :func:`etd2_step` the step itself, an
exponential trapezoid rule: the homogeneous flow is exact, the forcing is
interpolated linearly inside the step, and both weight vectors come from
closed-form integrals of the flow, so the only error is the quadrature error
of the forcing, O(dt^3) per step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flow_entries", "duhamel_weights", "etd2_step"]

_DEGENERATE_EPS = 1e-13


def _sc_cc(t, omega_sq: np.ndarray) -> tuple:
    """``(sin(t*omega)/omega, cos(t*omega))`` continued through omega_sq <= 0;
    ``t`` is a number or an array of omega_sq's shape."""
    w = np.asarray(omega_sq, dtype=np.float64)
    t = np.broadcast_to(t, w.shape)
    sc, cc = np.empty_like(w), np.empty_like(w)
    osc = w > _DEGENERATE_EPS
    hyp = w < -_DEGENERATE_EPS
    flat = ~(osc | hyp)
    r = np.sqrt(w[osc])
    sc[osc], cc[osc] = np.sin(t[osc] * r) / r, np.cos(t[osc] * r)
    g = np.sqrt(-w[hyp])
    sc[hyp], cc[hyp] = np.sinh(t[hyp] * g) / g, np.cosh(t[hyp] * g)
    tf, wt2 = t[flat], w[flat] * t[flat] ** 2  # the next Taylor terms, O(w^2 t^4), round away
    sc[flat], cc[flat] = tf * (1.0 - wt2 / 6.0), 1.0 - wt2 / 2.0
    return sc, cc


def flow_entries(lam, t, gamma: float = 0.5):
    """Entries of the per-mode 2x2 flow ``exp(t*[[0,1],[-lam,-2*gamma]])``.

    Returns ``(s11, s12, s21, s22)`` acting on ``(x, x')``; ``s12`` is the
    damped propagator kernel.  The flow is a group, so any real ``t`` works;
    an array of ``lam``'s shape gives each mode its own time.
    """
    lam = np.asarray(lam, dtype=np.float64)
    w = lam - gamma * gamma
    sc, cc = _sc_cc(t, w)
    env = np.exp(-gamma * t)
    s11 = env * (cc + gamma * sc)
    s12 = env * sc
    s21 = -lam * env * sc
    s22 = env * (cc - gamma * sc)
    return s11, s12, s21, s22


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
