"""Measured quantities: energies, enhanced-data norms, averaged Wick-power
estimators, commutator defects, trajectory difference norms, rate fits.

Everything here is read-only over states and trajectories.  Norms that the
theory states in C_T spaces are evaluated as maxima over saved nodes and
are therefore lower bounds of the true suprema; W^{-eps,inf} norms use the
collocation-point maximum of the smoothed field.  Estimator tables come
back as rows; the command line writes them with fixed headers through
``grid.write_csv``, so downstream fits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _step_count, step_linear_ensemble
from .grid import (BallEnsemble, GridSpec, _bracket_pow, _i_profile, _require_ball,
                   _sobolev_norms, _to_grid, random_field, rms, sobolev_norm)
from .noise import NoiseKind, NoiseStream, alpha_m, stationary_ensemble

__all__ = [
    "RateFit",
    "energy_en",
    "energy_meanfield",
    "zn_norm",
    "lln_estimator",
    "commutator_defect",
    "difference_norms",
    "fit_rate",
]


def energy_en(ens: BallEnsemble, m: float) -> float:
    """Component-averaged energy: quadratic part in mode space, quartic part
    as the squared pointwise mean of ``u_j^2`` on the grid.

    Read over replicas it is the energy of the mean-field flow with the
    empirical replica average, ``energy_meanfield``.
    """
    dispersion = ens.spec.mode_norm_sq.reshape(-1)[ens.index] + m
    quad = np.mean(np.sum(dispersion * np.abs(ens.pos) ** 2 + np.abs(ens.vel) ** 2, axis=-1))
    ug = _to_grid(ens.pos, ens.spec.n_grid, ens.radius)
    mean_sq = np.mean(ug * ug, axis=0)
    return float(0.5 * quad + 0.25 * np.mean(mean_sq * mean_sq))


energy_meanfield = energy_en


def _sup_proxy(z: np.ndarray, spec: GridSpec, s: float) -> np.ndarray:
    """Collocation max of ``<grad>^s z`` for real grid values ``z``, along
    the leading axes, through ``rfft2``/``irfft2``."""
    w = _bracket_pow(spec.n_grid, float(s))[:, :spec.nyquist + 1]
    smoothed = np.fft.irfft2(w * np.fft.rfft2(z, norm="forward"), s=spec.shape(), norm="forward")
    return np.max(np.abs(smoothed), axis=(-2, -1))


def zn_norm(nodes, eps: float, c_values) -> float:
    """Enhanced-data norm of a saved linear-ensemble trajectory.

    ``nodes`` is a sequence of ball ensembles at increasing times and
    ``c_values`` the Wick variance at each node (scalar for stationary
    data).  The four summands are the l2-averaged C_T W^{-eps,inf} norms of
    psi_j, of the diagonal squares :psi_k^2:, and of the off-diagonal-
    included pair and triple arrays :psi_k psi_j:, :psi_k^2 psi_j:.  Pair
    products are exact only under the ``triple`` rule of ``grid._BALL_RULES``.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("need at least one node")
    spec = nodes[0].spec
    n = len(nodes[0])
    c_arr = np.broadcast_to(np.asarray(c_values, dtype=np.float64), (len(nodes),))
    best1 = np.zeros(n)
    best2d = np.zeros(n)
    best2 = np.zeros((n, n))
    best3 = np.zeros((n, n))
    for ens, c in zip(nodes, c_arr):
        pg = _to_grid(ens.pos, spec.n_grid, ens.radius)
        best1 = np.maximum(best1, _sup_proxy(pg, spec, -eps))
        pair = pg[:, None] * pg[None, :]
        pair[np.arange(n), np.arange(n)] -= c
        # :psi_k^2 psi_j: = H2(psi_k) psi_j off the diagonal, H3 on it
        triple = (pg * pg - c)[:, None] * pg[None, :]
        triple[np.arange(n), np.arange(n)] -= 2.0 * c * pg
        m2 = _sup_proxy(pair, spec, -eps)
        m3 = _sup_proxy(triple, spec, -eps)
        best2 = np.maximum(best2, m2)
        best3 = np.maximum(best3, m3)
        best2d = np.maximum(best2d, np.diagonal(m2))
    return float(rms(best1) + rms(best2d) + rms(best2) + rms(best3))


_LLN_KINDS = ("wick_square_avg", "wick_triple_avg", "wick_triple_avg_an")


def _mean_row(n: int, norms: np.ndarray) -> dict:
    """``{"N", "mean_norm", "se"}`` over the reps in ``norms``; a single rep
    has no spread, so its ``se`` reads 0."""
    reps = len(norms)
    return {"N": int(n), "mean_norm": float(np.mean(norms)),
            "se": float(np.std(norms, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0}


def lln_estimator(spec: GridSpec, kinds, N_list, truncation: int, T: float,
                  reps: int, eps: float, root_seed: int, dt: float = 0.1,
                  map_fn=map) -> dict:
    """Mean L^2_T W^{-eps,inf}-proxy norm of averaged Wick estimators per N.

    ``kinds`` is a tuple of names from ``_LLN_KINDS``; the result maps each
    to its rows ``{"N": ..., "mean_norm": ..., "se": ...}``, the table that
    feeds :func:`fit_rate` and the ``N,mean_norm,se`` CSV.  Components ride
    stationary free trajectories, packed on the ball ``|n| <= truncation``,
    so the Wick variance is the constant ``alpha_M`` and norms are
    time-homogeneous.  Every kind reads one shared trajectory per (N, rep):
    the ensemble, its noise streams, its grid values and ``sum_k H2(psi_k)``
    are computed once per step, so a kind's rows are those of a call that
    asks for it alone.  The (N, rep) tasks own their seeds and go through
    ``map_fn(task, items)``, an order-preserving map such as a thread pool's.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in _LLN_KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
    _require_ball(spec, truncation, "triple")
    n_steps = _step_count(T, dt)
    c = alpha_m(spec.m, truncation)
    times = dt * np.arange(n_steps + 1)
    M = float(truncation)

    def task(item):
        n, base = item
        ens = stationary_ensemble(spec, M, root_seed, n, base)
        streams = [NoiseStream(root_seed, base + j, NoiseKind.DRIVE) for j in range(n)]
        vals = np.empty((len(kinds), n_steps + 1))
        for step in range(n_steps + 1):
            if step > 0:
                ens = step_linear_ensemble(ens, streams, step - 1, dt)
            pg = _to_grid(ens.pos, spec.n_grid, ens.radius)
            h2_sum = np.sum(pg * pg - c, axis=0)
            for i, kind in enumerate(kinds):
                if kind == "wick_square_avg":
                    z = h2_sum / n
                elif kind == "wick_triple_avg":
                    z = (h2_sum * pg[0] - 2.0 * c * pg[0]) / n
                else:
                    z = (h2_sum[None] * pg - 2.0 * c * pg) / n
                sup = _sup_proxy(z, spec, -eps)
                vals[i, step] = rms(sup) if kind == "wick_triple_avg_an" else sup
        return np.sqrt(np.trapezoid(vals * vals, times, axis=1))

    items = [(n, (n_idx * reps + rep) * n) for n_idx, n in enumerate(N_list)
             for rep in range(reps)]
    norms = np.asarray(list(map_fn(task, items))).reshape(len(N_list), reps, len(kinds))
    return {kind: [_mean_row(n, norms[n_idx, :, i]) for n_idx, n in enumerate(N_list)]
            for i, kind in enumerate(kinds)}


def commutator_defect(spec: GridSpec, s: float, M_list, trials: int,
                      root_seed: int, base_ball: float) -> list:
    """Max over trials of ``||I(f^2 g) - (If)^2 Ig||_{L^2}`` per threshold M.

    Fields are drawn with coefficient decay ``<n>^-2`` on ``|n| <= base_ball``
    and rescaled per M so ``||If||_{H^1} = ||Ig||_{H^1} = 1``; the defect is
    then the bare constant-times-M-power of the commutator bound.  Products
    are exact when ``base_ball`` keeps the ``triple`` rule of ``grid._BALL_RULES``.
    """
    _require_ball(spec, base_ball, "triple", what="base ball")
    gen = np.random.default_rng(root_seed)
    worst = {int(M): 0.0 for M in M_list}
    for _ in range(trials):
        f = random_field(spec, gen, decay=2.0, truncation=base_ball).coeffs
        g = random_field(spec, gen, decay=2.0, truncation=base_ball).coeffs
        fgrid, ggrid = np.fft.ifft2(f, norm="forward").real, np.fft.ifft2(g, norm="forward").real
        fg2 = np.fft.fft2(fgrid * fgrid * ggrid, norm="forward")
        for M in M_list:
            prof = _i_profile(spec.n_grid, float(s), float(M))
            i_f, i_g = f * prof, g * prof
            nf = sobolev_norm(i_f, 1.0)
            ng = sobolev_norm(i_g, 1.0)
            lhs = fg2 * prof
            ifg = np.fft.ifft2(i_f, norm="forward").real
            igg = np.fft.ifft2(i_g, norm="forward").real
            rhs = np.fft.fft2(ifg * ifg * igg, norm="forward")
            defect = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)) / (nf * nf * ng)
            worst[int(M)] = max(worst[int(M)], float(defect))
    return [{"M": M, "defect_max": worst[M]} for M in sorted(worst)]


def difference_norms(states_n, states_limit, s: float, j: int):
    """C_T script-H^s distance between two runs recorded at shared nodes.

    ``states_n`` and ``states_limit`` are sequences of ball ensembles, one per
    recording node, all on one ball; they are differenced packed.  Returns the
    component-j norm and the l2-average over components; both are maxima over
    the nodes of ``(||du||_{H^s}^2 + ||dv||_{H^{s-1}}^2)^{1/2}``.
    """
    if len(states_n) != len(states_limit) or not states_n:
        raise ValueError("the two runs must share their recording nodes")
    balls = {(x.spec.n_grid, x.radius) for x in [*states_n, *states_limit]}
    if len(balls) > 1:
        raise ValueError(f"states sit on different balls: {sorted(balls)}")
    (n_grid, radius), = balls
    best = np.zeros(len(states_n[0]))
    for a, b in zip(states_n, states_limit):
        val = np.hypot(_sobolev_norms(a.pos - b.pos, n_grid, radius, s),
                       _sobolev_norms(a.vel - b.vel, n_grid, radius, s - 1.0))
        bad = np.flatnonzero(~np.isfinite(val))
        if bad.size:
            # max() would silently drop a NaN node
            raise ValueError(f"non-finite fields at a recording node (component {bad[0]})")
        best = np.maximum(best, val)
    return float(best[j]), float(rms(best))


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log x, log y) with its slope uncertainty."""

    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    slope_se: float


def fit_rate(table) -> RateFit:
    """Fit ``log err = slope * log N + intercept`` over a table of pairs.

    Accepts either row dicts from the estimators (first two numeric fields
    are used) or plain (x, y) pairs; needs at least three points and
    positive values.
    """
    pairs = []
    for row in table:
        if isinstance(row, dict):
            vals = [v for v in row.values() if isinstance(v, (int, float))]
            pairs.append((vals[0], vals[1]))
        else:
            pairs.append((row[0], row[1]))
    if len(pairs) < 3:
        raise ValueError(f"rate fit needs >= 3 points, got {len(pairs)}")
    arr = np.asarray(pairs, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("rate fit needs positive x and y values")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    var = np.sum(resid**2) / dof if dof > 0 else 0.0
    denom = np.sum((x - np.mean(x)) ** 2)
    return RateFit(x, y, float(slope), float(intercept),
                   float(np.sqrt(var / denom)))
