"""Sampling the truncated renormalized Gibbs ensemble and testing its
invariance under the interacting wave flow.

The target measure on the mode ball ``|n| <= M`` has density proportional
to ``exp(-V(u) - K(u))`` against the coefficient Lebesgue measure, where K
is the Gaussian energy ``(1/2) sum_n (m+|n|^2) |u_n|^2`` (whose marginals
are exactly the per-mode equilibrium variances) and V is the Wick-
renormalized quartic interaction with variance parameter ``alpha_m``.
Velocities are independent white noise per mode and are drawn directly.

The sampler is MALA with the per-mode preconditioner ``(m+|n|^2)^{-1}``:
the proposal is ``(1-h^2/2) U - (h^2/2) grad V / w + h Z`` with Z an
equilibrium-shaped Gaussian, so the Gaussian part of the target is handled
with a well-scaled step at every frequency.  All energies and proposal
exponents are sums over the ball, which holds both modes of a mirror pair;
paired modes are counted twice on both sides of the accept ratio, which
cancels.

A pair of unadjusted chains driven by common innovations, one interacting
and one free, yields coupled (Gibbs, Gaussian) samples whose difference is
controlled by the interaction gradient; this is the initial-data coupling
used by the mean-field convergence experiment.  The pair takes the
preconditioned Crank-Nicolson step ``sqrt(1-h^2) U + h Z`` (Cotter, Roberts,
Stuart and White, Stat. Sci. 28, 2013), which leaves the free side's
equilibrium exactly invariant for every h <= 1.

Every ensemble here is a ``grid.BallEnsemble``: the chains' states, the
thinned draws of :class:`GibbsSamples` (one ``(K, N, n_ball)`` batch), their
evolution and the invariance observables.  The per-mode weights
``w = m + |n|^2`` are packed on the ball, and an iteration's N innovations
come from one ``noise._sample_ball`` call with the packed variances
``1 / w``; drift, potential and observables reach grid values through real
FFTs on the half spectrum (``grid._to_grid``).  No full coefficient grid is
filled: a MALA proposal takes one ``_to_grid``, which its potential, its
``series`` value and its gradient share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _step_count, renormalized_drift, step_renormalized_wave
from .grid import BallEnsemble, GridSpec, _ball_index, _to_grid, ball_mask, write_csv
from .noise import NoiseKind, NoiseStream, _sample_ball, alpha_m, stationary_ensemble
# unused; traced sites of perfbench/tracer.py
from .noise import _draw_kick, _sample_profile  # noqa: F401
from .wick import hermite

__all__ = [
    "GibbsSamplerConfig",
    "GibbsSamples",
    "InvarianceReport",
    "gibbs_potential",
    "sample_gibbs",
    "coupled_gibbs_gaussian_pair",
    "evolve_gibbs_samples",
    "invariance_check",
    "gibbs_vs_gaussian_covariance",
    "integrated_autocorrelation",
]


def _potential_density(ug: np.ndarray, alpha: float) -> np.ndarray:
    """Pointwise ``4N`` times the interaction density, summed over axis -3.

    The pairwise double sum over components is ``(sum H_2)^2 - sum H_2^2``
    pointwise, plus the diagonal fourth Wick powers.
    """
    h2 = ug * ug - alpha
    total = np.sum(h2, axis=-3)
    off_diag = total * total - np.sum(h2 * h2, axis=-3)
    return off_diag + np.sum(hermite(4, ug, alpha), axis=-3)


def _potential(ug: np.ndarray, alpha: float) -> np.ndarray:
    """Interaction of ``(..., N, n, n)`` grid values, one per leading index."""
    return np.mean(_potential_density(ug, alpha), axis=(-2, -1)) / (4.0 * ug.shape[-3])


def gibbs_potential(ens: BallEnsemble, alpha: float) -> float:
    """Renormalized quartic interaction, factored to one pass over components."""
    return float(_potential(_to_grid(ens.pos, ens.spec.n_grid, ens.radius), alpha))


@dataclass(frozen=True)
class GibbsSamplerConfig:
    """Chain geometry and step size for the coefficient-space MALA sampler."""

    n_components: int
    truncation: int
    m: float
    step_size: float
    chain_length: int
    burn_in: int
    thin: int = 10
    interaction: bool = True
    acceptance_band: tuple = (0.3, 0.8)

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError(f"step size must be positive, got {self.step_size}")
        if not 0 <= self.burn_in < self.chain_length:
            raise ValueError("need 0 <= burn_in < chain_length")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_samples(self) -> int:
        return (self.chain_length - self.burn_in + self.thin - 1) // self.thin


@dataclass
class GibbsSamples:
    """Thinned draws, plus chain health numbers.

    ``draws`` is one ``(K, N, n_ball)`` :class:`~sigma_wave.grid.BallEnsemble`
    on the truncation ball: ``draws[k]`` is sample k, and ``draws.pos[k, j]``
    the ball-mode coefficients of its component j.
    """

    draws: BallEnsemble
    accept_rate: float
    iact: float
    series: np.ndarray

    def __len__(self) -> int:
        return self.draws.pos.shape[0]

    def mode_values(self, j: int, mode: tuple) -> np.ndarray:
        n_grid = self.draws.spec.n_grid
        flat = (mode[0] % n_grid) * n_grid + (mode[1] % n_grid)
        hits = np.flatnonzero(self.draws.index == flat)
        if hits.size == 0:
            return np.zeros(len(self), dtype=np.complex128)
        return self.draws.pos[:, j, hits[0]]


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the autocorrelation time."""
    x = np.asarray(series, dtype=np.float64)
    x = x - np.mean(x)
    var = np.mean(x * x)
    if var == 0 or x.size < 4:
        return 1.0
    tau = 1.0
    for lag in range(1, x.size // 2):
        rho = np.mean(x[:-lag] * x[lag:]) / var
        if rho <= 0:
            break
        tau += 2.0 * rho
    return float(tau)


def _gaussian_energy(pos: np.ndarray, w_ball: np.ndarray) -> float:
    return float(0.5 * np.sum(w_ball * (pos.real**2 + pos.imag**2)))


def _proposal_exponent(src, dst, grad_src, w_ball, inv_w, h: float) -> float:
    beta = 1.0 - 0.5 * h * h
    mean = beta * src - 0.5 * h * h * grad_src * inv_w
    diff = dst - mean
    return float(np.sum(w_ball * (diff.real**2 + diff.imag**2)) / (2.0 * h * h))


def mala_log_ratio(pos, prop, grad_pos, grad_prop, energy_pos, energy_prop,
                   w_ball, inv_w, h: float) -> float:
    """Log acceptance ratio from energies and the two proposal exponents.

    ``log [pi(prop) q(prop -> pos)] / [pi(pos) q(pos -> prop)]`` with
    q the Gaussian proposal density; exponents enter with the forward
    one positive.
    """
    return (energy_pos - energy_prop
            + _proposal_exponent(pos, prop, grad_pos, w_ball, inv_w, h)
            - _proposal_exponent(prop, pos, grad_prop, w_ball, inv_w, h))


def _ball_grad(pos: np.ndarray, spec: GridSpec, alpha: float, truncation: float,
               ug: np.ndarray | None = None) -> np.ndarray:
    """Interaction gradient of packed ``(N, n_ball)`` positions, packed alike,
    through ``renormalized_drift`` (which reads no vel); ``ug`` are the
    positions' grid values when the caller has them."""
    return -renormalized_drift(BallEnsemble(spec, truncation, pos, pos), alpha, ug)


def _velocities(spec: GridSpec, M: int, root_seed: int, n: int, k: int) -> np.ndarray:
    """Packed velocity refresh ``k``: n white-noise draws on the ball."""
    gen = NoiseStream(root_seed, 0, NoiseKind.VELOCITY).generator(k)
    return _sample_ball(gen, spec, M, np.ones(_ball_index(spec.n_grid, float(M)).size), n)


def _chain_setup(spec: GridSpec, cfg: GibbsSamplerConfig):
    """Packed weights ``w = m + |n|^2`` of the truncation ball and their
    inverses, the innovation variances; raises unless cfg and grid share m."""
    if abs(cfg.m - spec.m) > 1e-12:
        raise ValueError(f"config mass {cfg.m} != grid mass {spec.m}")
    w = spec.dispersion.reshape(-1)[_ball_index(spec.n_grid, float(cfg.truncation))]
    return w, 1.0 / w


def sample_gibbs(spec: GridSpec, cfg: GibbsSamplerConfig, root_seed: int) -> GibbsSamples:
    """Run one MALA chain and return thinned (position, velocity) samples.

    The state is a packed ``(N, n_ball)`` stack; one ``_to_grid`` per proposal
    serves the potential, the gradient and the ``series`` value (component
    0's Wick square).
    Velocities are exact independent draws, so only positions are chained.
    Warns when the post-burn-in acceptance rate leaves the configured band.
    """
    n, M, h = cfg.n_components, cfg.truncation, cfg.step_size
    w, inv_w = _chain_setup(spec, cfg)
    alpha = alpha_m(spec.m, M) if cfg.interaction else 0.0

    def state_of(p):
        """Gradient, energy and grid values of packed positions ``p``."""
        ug = _to_grid(p, spec.n_grid, float(M))
        if not cfg.interaction:
            return np.zeros_like(p), _gaussian_energy(p, w), ug
        energy = _gaussian_energy(p, w) + float(_potential(ug, alpha))
        return _ball_grad(p, spec, alpha, float(M), ug), energy, ug

    pos = stationary_ensemble(spec, M, root_seed, n).pos
    grad, energy, ug = state_of(pos)
    innovations = NoiseStream(root_seed, 0, NoiseKind.CHAIN)

    keep_pos, series, accepted = [], [], 0
    beta = 1.0 - 0.5 * h * h
    for it in range(cfg.chain_length):
        gen = innovations.generator(it)
        z = _sample_ball(gen, spec, M, inv_w, n)
        prop = beta * pos - 0.5 * h * h * grad * inv_w + h * z
        grad_prop, energy_prop, ug_prop = state_of(prop)
        log_ratio = mala_log_ratio(pos, prop, grad, grad_prop, energy, energy_prop,
                                   w, inv_w, h)
        accept = bool(np.log(gen.uniform()) < log_ratio)
        if accept:
            pos, grad, energy, ug = prop, grad_prop, energy_prop, ug_prop
        if it >= cfg.burn_in:
            accepted += accept
            series.append(np.mean(ug[0] * ug[0]) - alpha)
            if (it - cfg.burn_in) % cfg.thin == 0:
                keep_pos.append(pos)

    accept_rate = accepted / (cfg.chain_length - cfg.burn_in)
    lo, hi = cfg.acceptance_band
    if not lo <= accept_rate <= hi:
        target = 0.57
        suggestion = h * (accept_rate / target if accept_rate > 0 else 0.5) ** 0.5
        warnings.warn(
            f"MALA acceptance {accept_rate:.2f} outside [{lo}, {hi}]; "
            f"try step_size near {suggestion:.3g}", RuntimeWarning)

    vel = np.stack([_velocities(spec, M, root_seed, n, k) for k in range(len(keep_pos))])
    return GibbsSamples(BallEnsemble(spec, M, np.stack(keep_pos), vel), accept_rate,
                        integrated_autocorrelation(np.asarray(series)), np.asarray(series))


def coupled_gibbs_gaussian_pair(spec: GridSpec, cfg: GibbsSamplerConfig, root_seed: int):
    """Common-innovation pair of pCN chains: (interacting, free).

    Both chains take the preconditioned Crank-Nicolson step
    ``sqrt(1-h^2) U + h Z`` with the same innovations Z ~ N(0, C); the
    interacting one adds the unadjusted Langevin drift ``-(h^2/2) grad V / w``.
    Since ``beta^2 + h^2 = 1`` the free chain keeps the truncated equilibrium
    exactly, for any h <= 1; the interacting one approximates its Gibbs
    counterpart, and the coupling keeps their difference of the order of the
    interaction gradient.  Both states are packed ``(N, n_ball)`` stacks fed by one
    :func:`_sample_ball` draw per iteration.  Velocities are one shared
    equilibrium draw.  Returns a pair of ball ensembles ``(gibbs, gaussian)``.
    With ``cfg.interaction`` off both sides are the free chain; there is no burn-in or thinning.
    """
    n, M, h = cfg.n_components, cfg.truncation, cfg.step_size
    if h > 1:
        raise ValueError(f"the pCN step needs h <= 1 for sqrt(1 - h^2) to be real; got h = {h}")
    inv_w = _chain_setup(spec, cfg)[1]
    alpha = alpha_m(spec.m, M)
    beta = np.sqrt(1.0 - h * h)

    pos_a = stationary_ensemble(spec, M, root_seed, n).pos
    pos_b = pos_a.copy()
    innovations = NoiseStream(root_seed, 0, NoiseKind.CHAIN)
    for it in range(cfg.chain_length):
        z = _sample_ball(innovations.generator(it), spec, M, inv_w, n)
        grad = _ball_grad(pos_a, spec, alpha, float(M)) if cfg.interaction else 0.0
        pos_a = beta * pos_a - 0.5 * h * h * grad * inv_w + h * z
        pos_b = beta * pos_b + h * z

    if not np.all(np.isfinite(pos_a)):
        # unadjusted proposals have no rejection safety net for the cubic drift
        raise ValueError(f"coupled chain diverged; step size {h} is too large "
                         f"for truncation {M}")
    vel = _velocities(spec, M, root_seed, n, 0)
    return BallEnsemble(spec, M, pos_a, vel.copy()), BallEnsemble(spec, M, pos_b, vel)


def evolve_gibbs_samples(ens: BallEnsemble, alpha: float, dt: float, n_steps: int,
                         noise_seed: int, slices: int = 1, map_fn=map) -> BallEnsemble:
    """Advance a ``(K, N, n_ball)`` batch of K independent N-component
    systems in lockstep, and return the batch at the end.

    The batch is advanced by the interacting wave stepper on its ball, with
    noise streams keyed by flattened sample-component index; bit-identical to
    stepping each system alone.  With ``slices > 1`` the K axis is cut into
    that many contiguous slices, which ``map_fn(fn, items)`` evolves in order
    (a thread map runs them in parallel); each slice keeps the streams of its
    own flattened indices, so the result does not depend on ``slices``.
    """
    k, n = ens.pos.shape[:2]

    def evolve(bounds):
        lo, hi = bounds
        streams = [NoiseStream(noise_seed, i, NoiseKind.DRIVE) for i in range(lo * n, hi * n)]
        part = ens[lo:hi]
        for step in range(n_steps):
            part = step_renormalized_wave(part, streams, step, dt, alpha)
        return part

    slices = max(1, min(slices, k))
    cuts = [k * i // slices for i in range(slices + 1)]
    parts = list(map_fn(evolve, zip(cuts[:-1], cuts[1:])))
    return BallEnsemble(ens.spec, ens.radius, np.concatenate([p.pos for p in parts]),
                        np.concatenate([p.vel for p in parts]))


@dataclass
class InvarianceReport:
    """KS statistics and means of the invariance observables at t=0 vs t=T."""

    rows: list

    COLUMNS = ("observable", "ks_stat", "p_value", "mean_t0", "se_t0", "mean_t1", "se_t1")

    def to_csv(self, path) -> None:
        write_csv(path, ",".join(self.COLUMNS), ([r[k] for k in self.COLUMNS] for r in self.rows))


def _invariance_observables(ens: BallEnsemble, alpha: float) -> dict:
    """Observables of a ``(K, N, n_ball)`` batch, one value per sample."""
    ug = _to_grid(ens.pos, ens.spec.n_grid, ens.radius)
    wick_sq = np.mean(ug[:, 0] ** 2, axis=(1, 2)) - alpha
    low = ball_mask(ens.spec, 1.0).reshape(-1)[ens.index]
    low_energy = np.sum(np.abs(ens.pos[:, 0, low]) ** 2, axis=1)
    potential = _potential(ug, alpha)
    return {"wick_square_int": wick_sq, "low_mode_energy": low_energy,
            "potential": potential}


def invariance_check(spec: GridSpec, cfg: GibbsSamplerConfig, root_seed: int,
                     horizon: float, dt: float, slices: int = 1,
                     map_fn=map) -> InvarianceReport:
    """Draw Gibbs samples, evolve to the horizon, compare observable laws.

    The truncated dynamics and the sampled measure share the truncation and
    the Wick constant, so for an exact sampler and exact flow the two sample
    sets are equal in law; KS and mean shifts quantify the residual bias.
    ``slices`` and ``map_fn`` split the evolution as in
    :func:`evolve_gibbs_samples`; the chain is one sequential run.
    """
    from scipy.stats import ks_2samp  # here, so that importing sigma_wave skips scipy

    if cfg.n_samples < 2:
        raise ValueError(f"invariance check needs cfg.n_samples >= 2 retained samples, "
                         f"got {cfg.n_samples}; lengthen the chain or lower thin")
    n_steps = _step_count(horizon, dt) if horizon else 0  # a zero horizon takes no step
    samples = sample_gibbs(spec, cfg, root_seed)
    alpha = alpha_m(spec.m, cfg.truncation)
    evolved = evolve_gibbs_samples(samples.draws, alpha, dt, n_steps, root_seed + 1,
                                   slices, map_fn)
    obs0 = _invariance_observables(samples.draws, alpha)
    obs1 = _invariance_observables(evolved, alpha)
    rows = []
    for name in obs0:
        a, b = obs0[name], obs1[name]
        ks = ks_2samp(a, b)
        rows.append({
            "observable": name,
            "ks_stat": float(ks.statistic),
            "p_value": float(ks.pvalue),
            "mean_t0": float(np.mean(a)),
            "se_t0": float(np.std(a, ddof=1) / np.sqrt(len(a))),
            "mean_t1": float(np.mean(b)),
            "se_t1": float(np.std(b, ddof=1) / np.sqrt(len(b))),
        })
    return InvarianceReport(rows)


def gibbs_vs_gaussian_covariance(samples: GibbsSamples, j: int, mode: tuple) -> dict:
    """Per-mode sample variance against the free-field value ``1/(m+|n|^2)``."""
    vals = samples.mode_values(j, mode)
    spec = samples.draws.spec
    n1 = (mode[0] + spec.n_grid // 2) % spec.n_grid - spec.n_grid // 2
    n2 = (mode[1] + spec.n_grid // 2) % spec.n_grid - spec.n_grid // 2
    in_ball = n1 * n1 + n2 * n2 <= samples.draws.radius**2 + 1e-9
    est = float(np.mean(np.abs(vals) ** 2))
    # |c|^2 has sd sqrt(2) * mean on a real (self-conjugate) mode, sd = mean on a complex one
    self_conjugate = (2 * n1) % spec.n_grid == 0 and (2 * n2) % spec.n_grid == 0
    se = est * np.sqrt((2.0 if self_conjugate else 1.0) / max(len(vals) - 1, 1))
    target = 1.0 / (spec.m + n1 * n1 + n2 * n2) if in_ball else 0.0
    return {"mode": (int(n1), int(n2)), "variance": est, "se": float(se),
            "gaussian_variance": target}
