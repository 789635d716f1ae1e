"""Measured quantities: energies, enhanced-data norms, averaged Wick-power
estimators, commutator defects, trajectory difference norms, rate fits.

Everything here is read-only over states and trajectories.  Norms that the
theory states in C_T spaces are evaluated as maxima over saved nodes and
are therefore lower bounds of the true suprema; W^{-eps,inf} norms use the
collocation-point maximum of the smoothed field.  Estimator tables are
emitted as CSV with fixed headers so downstream fits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import step_linear_ensemble
from .grid import (
    ComponentEnsemble,
    GridSpec,
    SpectralField,
    _bracket_pow,
    apply_i_operator,
    random_field,
    rms,
    sobolev_norm,
)
from .noise import NoiseKind, NoiseStream, alpha_m, sample_mu1_mu0_pair

__all__ = [
    "RateFit",
    "energy_en",
    "energy_meanfield",
    "modified_energy",
    "zn_norm",
    "lln_estimator",
    "commutator_defect",
    "difference_norms",
    "fit_rate",
    "write_csv",
]


def _ensemble_energy(pos: np.ndarray, vel: np.ndarray, m: float, spec: GridSpec) -> float:
    mode_sq = spec.mode_norm_sq
    quad = np.mean(np.sum((mode_sq + m) * np.abs(pos) ** 2
                          + np.abs(vel) ** 2, axis=(1, 2)))
    ug = np.fft.ifft2(pos, norm="forward").real
    mean_sq = np.mean(ug * ug, axis=0)
    return float(0.5 * quad + 0.25 * np.mean(mean_sq * mean_sq))


def energy_en(ens: ComponentEnsemble, m: float) -> float:
    """Component-averaged energy: quadratic part in mode space, quartic part
    as the squared pointwise mean of ``u_j^2`` on the grid.

    Read over replicas it is the energy of the mean-field flow with the
    empirical replica average, ``energy_meanfield``.
    """
    return _ensemble_energy(ens.pos, ens.vel, m, ens.spec)


energy_meanfield = energy_en


def modified_energy(ens: ComponentEnsemble, m: float, s: float, truncation: float) -> float:
    """Energy of the I-smoothed ensemble; equals :func:`energy_en` once the
    threshold clears ``nyquist * sqrt(2)`` and the multiplier is 1 everywhere."""
    pos = np.empty_like(ens.pos)
    vel = np.empty_like(ens.vel)
    for j in range(len(ens)):
        pos[j] = apply_i_operator(SpectralField(ens.spec, ens.pos[j], copy=False),
                                  s, truncation).coeffs
        vel[j] = apply_i_operator(SpectralField(ens.spec, ens.vel[j], copy=False),
                                  s, truncation).coeffs
    return _ensemble_energy(pos, vel, m, ens.spec)


def _sup_proxy(coeffs: np.ndarray, spec: GridSpec, s: float) -> np.ndarray:
    """Collocation max of ``<grad>^s f`` along the leading axes."""
    w = _bracket_pow(spec.n_grid, float(s))
    smoothed = np.fft.ifft2(w * coeffs, norm="forward").real
    return np.max(np.abs(smoothed), axis=(-2, -1))


def zn_norm(nodes, eps: float, c_values) -> float:
    """Enhanced-data norm of a saved linear-ensemble trajectory.

    ``nodes`` is a sequence of component ensembles at increasing times and
    ``c_values`` the Wick variance at each node (scalar for stationary
    data).  The four summands are the l2-averaged C_T W^{-eps,inf} norms of
    psi_j, of the diagonal squares :psi_k^2:, and of the off-diagonal-
    included pair and triple arrays :psi_k psi_j:, :psi_k^2 psi_j:.  Pair
    products are exact only while ``3 M < nyquist``.
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
        best1 = np.maximum(best1, _sup_proxy(ens.pos, spec, -eps))
        pg = np.fft.ifft2(ens.pos, norm="forward").real
        pair = pg[:, None] * pg[None, :]
        pair[np.arange(n), np.arange(n)] -= c
        pair_hat = np.fft.fft2(pair, norm="forward")
        # :psi_k^2 psi_j: = H2(psi_k) psi_j off the diagonal, H3 on it
        triple = (pg * pg - c)[:, None] * pg[None, :]
        triple[np.arange(n), np.arange(n)] -= 2.0 * c * pg
        triple_hat = np.fft.fft2(triple, norm="forward")
        m2 = _sup_proxy(pair_hat, spec, -eps)
        m3 = _sup_proxy(triple_hat, spec, -eps)
        best2 = np.maximum(best2, m2)
        best3 = np.maximum(best3, m3)
        best2d = np.maximum(best2d, np.diagonal(m2))
    return float(rms(best1) + rms(best2d) + rms(best2) + rms(best3))


def _stationary_ensemble(spec: GridSpec, n: int, truncation: float,
                         root_seed: int, comp_base: int) -> ComponentEnsemble:
    pos = np.empty((n,) + spec.shape(), dtype=np.complex128)
    vel = np.empty_like(pos)
    for j in range(n):
        stream = NoiseStream(root_seed, comp_base + j, NoiseKind.INITIAL)
        pair = sample_mu1_mu0_pair(spec, truncation, stream)
        pos[j] = pair.pos.coeffs
        vel[j] = pair.vel.coeffs
    return ComponentEnsemble(spec, pos, vel, copy=False)


_LLN_KINDS = ("wick_square_avg", "wick_triple_avg", "wick_triple_avg_an")


def _mean_row(n: int, norms: np.ndarray) -> dict:
    """``{"N", "mean_norm", "se"}`` over the reps in ``norms``; a single rep
    has no spread, so its ``se`` reads 0."""
    reps = len(norms)
    return {"N": int(n), "mean_norm": float(np.mean(norms)),
            "se": float(np.std(norms, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0}


def lln_estimator(spec: GridSpec, kinds, N_list, truncation: int, T: float,
                  reps: int, eps: float, root_seed: int, dt: float = 0.1) -> dict:
    """Mean L^2_T W^{-eps,inf}-proxy norm of averaged Wick estimators per N.

    ``kinds`` is a tuple of names from ``_LLN_KINDS``; the result maps each
    to its rows ``{"N": ..., "mean_norm": ..., "se": ...}``, the table that
    feeds :func:`fit_rate` and the ``N,mean_norm,se`` CSV.  Components ride
    stationary free trajectories, so the Wick variance is the constant
    ``alpha_M`` and norms are time-homogeneous.  Every kind reads one shared
    trajectory per (N, rep): the ensemble, its noise streams, its grid
    values and ``sum_k H2(psi_k)`` are computed once per step, so a kind's
    rows are those of a call that asks for it alone.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in _LLN_KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
    if 3 * truncation >= spec.nyquist:
        raise ValueError(f"triple products of ball {truncation} modes alias "
                         f"on an n_grid = {spec.n_grid} grid")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9:
        raise ValueError(f"dt {dt} does not divide T {T}")
    c = alpha_m(spec.m, truncation)
    times = dt * np.arange(n_steps + 1)
    norms = np.empty((len(kinds), len(N_list), reps))
    for n_idx, n in enumerate(N_list):
        for rep in range(reps):
            base = (n_idx * reps + rep) * n
            ens = _stationary_ensemble(spec, n, float(truncation), root_seed, base)
            streams = [NoiseStream(root_seed, base + j, NoiseKind.DRIVE)
                       for j in range(n)]
            vals = np.empty((len(kinds), n_steps + 1))
            for step in range(n_steps + 1):
                if step > 0:
                    ens = step_linear_ensemble(ens, streams, step - 1, dt,
                                               float(truncation))
                pg = np.fft.ifft2(ens.pos, norm="forward").real
                h2_sum = np.sum(pg * pg - c, axis=0)
                for i, kind in enumerate(kinds):
                    if kind == "wick_square_avg":
                        z = h2_sum / n
                    elif kind == "wick_triple_avg":
                        z = (h2_sum * pg[0] - 2.0 * c * pg[0]) / n
                    else:
                        z = (h2_sum[None] * pg - 2.0 * c * pg) / n
                    sup = _sup_proxy(np.fft.fft2(z, norm="forward"), spec, -eps)
                    vals[i, step] = rms(sup) if kind == "wick_triple_avg_an" else sup
            for i, v in enumerate(vals):
                norms[i, n_idx, rep] = np.sqrt(np.trapezoid(v * v, times))
    return {kind: [_mean_row(n, norms[i, n_idx]) for n_idx, n in enumerate(N_list)]
            for i, kind in enumerate(kinds)}


def commutator_defect(spec: GridSpec, s: float, M_list, trials: int,
                      root_seed: int, base_ball: float) -> list:
    """Max over trials of ``||I(f^2 g) - (If)^2 Ig||_{L^2}`` per threshold M.

    Fields are drawn with coefficient decay ``<n>^-2`` on ``|n| <= base_ball``
    and rescaled per M so ``||If||_{H^1} = ||Ig||_{H^1} = 1``; the defect is
    then the bare constant-times-M-power of the commutator bound.  Products
    are exact provided ``3 * base_ball < nyquist``.
    """
    if 3 * base_ball >= spec.nyquist:
        raise ValueError(f"base ball {base_ball} needs n_grid > {6 * base_ball}")
    gen = np.random.default_rng(root_seed)
    worst = {int(M): 0.0 for M in M_list}
    for _ in range(trials):
        f = random_field(spec, gen, decay=2.0, truncation=base_ball)
        g = random_field(spec, gen, decay=2.0, truncation=base_ball)
        fg2_hat = None
        for M in M_list:
            i_f = apply_i_operator(f, s, float(M))
            i_g = apply_i_operator(g, s, float(M))
            nf = sobolev_norm(i_f, 1.0)
            ng = sobolev_norm(i_g, 1.0)
            if fg2_hat is None:
                fgrid = f.to_grid()
                ggrid = g.to_grid()
                fg2_hat = np.fft.fft2(fgrid * fgrid * ggrid, norm="forward")
            lhs = apply_i_operator(SpectralField(spec, fg2_hat, copy=False),
                                   s, float(M)).coeffs
            ifg = np.fft.ifft2(i_f.coeffs, norm="forward").real
            igg = np.fft.ifft2(i_g.coeffs, norm="forward").real
            rhs = np.fft.fft2(ifg * ifg * igg, norm="forward")
            defect = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)) / (nf * nf * ng)
            worst[int(M)] = max(worst[int(M)], float(defect))
    return [{"M": M, "defect_max": worst[M]} for M in sorted(worst)]


def difference_norms(traj_n, traj_limit, s: float, j: int):
    """C_T script-H^s distance between two saved trajectories.

    Returns the component-j norm and the l2-average over components; both
    are maxima over the shared recording nodes of
    ``(||du||_{H^s}^2 + ||dv||_{H^{s-1}}^2)^{1/2}``.
    """
    if len(traj_n.states) != len(traj_limit.states) or not traj_n.states:
        raise ValueError("trajectories must share their recording nodes")
    if not np.allclose(traj_n.times, traj_limit.times):
        raise ValueError("trajectories must share their recording times")
    n = len(traj_n.states[0])
    best = np.zeros(n)
    for a, b in zip(traj_n.states, traj_limit.states):
        spec = a.spec
        for comp in range(n):
            du = SpectralField(spec, a.pos[comp] - b.pos[comp], copy=False)
            dv = SpectralField(spec, a.vel[comp] - b.vel[comp], copy=False)
            val = np.hypot(sobolev_norm(du, s), sobolev_norm(dv, s - 1.0))
            if not np.isfinite(val):
                # max() would silently drop a NaN node
                raise ValueError(f"non-finite fields at a recording node (component {comp})")
            best[comp] = max(best[comp], val)
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


def write_csv(path, header: str, rows) -> None:
    """Write a table with an exact header line; floats at full precision."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            vals = list(row.values()) if isinstance(row, dict) else list(row)
            out = []
            for v in vals:
                if isinstance(v, (int, np.integer)):
                    out.append(str(int(v)))
                else:
                    out.append(f"{float(v):.17g}")
            fh.write(",".join(out) + "\n")
