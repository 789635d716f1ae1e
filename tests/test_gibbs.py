"""Gibbs measure: potential, drift, sampler correctness, flow invariance."""

import numpy as np
import pytest

from sigma_wave.dynamics import renormalized_drift, step_renormalized_wave
from sigma_wave.gibbs import (
    GibbsSamplerConfig,
    GibbsSamples,
    InvarianceReport,
    _ball_grad,
    _gaussian_energy,
    coupled_gibbs_gaussian_pair,
    evolve_gibbs_samples,
    gibbs_potential,
    gibbs_vs_gaussian_covariance,
    integrated_autocorrelation,
    invariance_check,
    mala_log_ratio,
    sample_gibbs,
)
from sigma_wave.grid import BallEnsemble, GridSpec, _ball_index, _unpack, ball_mask, random_field
from sigma_wave.noise import (NoiseKind, NoiseStream, _sample_ball, _sample_profile, alpha_m,
                              stationary_ensemble)

from oracles import ball_ensemble, gibbs_potential_reference, sample_profile_full_grid


def random_ensemble(spec, n, seed, amplitude=0.6, truncation=2.0):
    gen = np.random.default_rng(seed)
    pos = np.stack([random_field(spec, gen, decay=1.0, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    return ball_ensemble(spec, pos, radius=truncation)


def at_rest(packed, spec, radius):
    return BallEnsemble(spec, radius, packed, np.zeros_like(packed))


def test_potential_at_zero_field_matches_closed_forms():
    spec = GridSpec(8, m=1.0)
    alpha = 0.37
    zero2 = BallEnsemble.zeros(spec, 2.0, 2)
    zero1 = BallEnsemble.zeros(spec, 2.0, 1)
    assert abs(gibbs_potential(zero2, alpha) - alpha**2) < 1e-14
    assert abs(gibbs_potential(zero1, alpha) - 0.75 * alpha**2) < 1e-14


@pytest.mark.parametrize("n", [1, 3, 4])
def test_potential_factored_form_matches_double_loop(n):
    spec = GridSpec(16, m=1.0)
    ens = random_ensemble(spec, n, seed=11 * n)
    alpha = alpha_m(spec.m, 2)
    a = gibbs_potential(ens, alpha)
    b = gibbs_potential_reference(ens, alpha)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_drift_matches_finite_differences_of_potential():
    # the gradient check behind trusting the closed-form drift
    spec = GridSpec(16, m=1.0)
    n, M = 3, 2
    alpha = alpha_m(spec.m, M)
    ens = random_ensemble(spec, n, seed=5, truncation=float(M))
    drift = renormalized_drift(ens, alpha)
    gen = np.random.default_rng(99)
    eps = 1e-5
    for _ in range(20):
        w = np.stack([random_field(spec, gen, decay=0.5, amplitude=1.0,
                                   truncation=float(M)).coeffs for _ in range(n)])
        w = w.reshape(n, -1)[:, ens.index]
        plus = BallEnsemble(spec, M, ens.pos + eps * w, ens.vel)
        minus = BallEnsemble(spec, M, ens.pos - eps * w, ens.vel)
        fd = (gibbs_potential(plus, alpha) - gibbs_potential(minus, alpha)) / (2 * eps)
        # L2 pairing against the normalized measure is the plain coefficient sum
        exact = -np.sum(drift * np.conj(w)).real
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def scalar_energy(x, m, alpha):
    return 0.5 * m * x * x + 0.25 * (x**4 - 6 * alpha * x * x + 3 * alpha**2)


def scalar_grad(x, alpha):
    return x**3 - 3 * alpha * x


def scalar_exponent(a, b, m, alpha, h):
    mean = (1 - 0.5 * h * h) * a - 0.5 * h * h * scalar_grad(a, alpha) / m
    return m * (b - mean) ** 2 / (2 * h * h)


def test_mala_log_ratio_matches_scalar_densities():
    # M = 0 keeps a single real degree of freedom, so the full accept
    # arithmetic can be checked against explicit one-dimensional formulas
    # packed on the ball, that degree of freedom is the one slot of (1, 1) arrays
    spec = GridSpec(8, m=1.3)
    idx = _ball_index(spec.n_grid, 0.0)
    w = spec.dispersion.reshape(-1)[idx]
    inv_w = 1.0 / w
    alpha = 0.4
    h = 0.7
    gen = np.random.default_rng(3)
    for _ in range(10):
        a, b = gen.normal(size=2)
        pa = np.full((1, 1), a, dtype=np.complex128)
        pb = np.full((1, 1), b, dtype=np.complex128)
        ga = _ball_grad(pa, spec, alpha, 0.0)
        gb = _ball_grad(pb, spec, alpha, 0.0)
        ea = _gaussian_energy(pa, w) + gibbs_potential(at_rest(pa, spec, 0.0), alpha)
        eb = _gaussian_energy(pb, w) + gibbs_potential(at_rest(pb, spec, 0.0), alpha)
        got = mala_log_ratio(pa, pb, ga, gb, ea, eb, w, inv_w, h)
        want = (scalar_energy(a, spec.m, alpha) - scalar_energy(b, spec.m, alpha)
                + scalar_exponent(a, b, spec.m, alpha, h)
                - scalar_exponent(b, a, spec.m, alpha, h))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        back = mala_log_ratio(pb, pa, gb, ga, eb, ea, w, inv_w, h)
        assert abs(got + back) <= 1e-10


def test_free_mala_log_ratio_equals_quarter_h2_energy_drop():
    # with the gradient off, the quadratic cross terms cancel dof by dof and
    # the exact ratio is (h^2/4) (K - K'); pins the sign and the scaling
    spec = GridSpec(8, m=1.0)
    M = 2
    mask = ball_mask(spec, M)
    w = np.where(mask, spec.dispersion, 0.0)
    inv_w = np.where(mask, 1.0 / spec.dispersion, 0.0)
    prof = np.where(mask, 1.0 / spec.dispersion, 0.0)
    gen = np.random.default_rng(12)
    for h in (0.3, 0.9):
        pos = np.stack([sample_profile_full_grid(gen, spec, M, prof) for _ in range(2)])
        z = np.stack([sample_profile_full_grid(gen, spec, M, prof) for _ in range(2)])
        prop = (1 - 0.5 * h * h) * pos + h * z
        zero = np.zeros_like(pos)
        k0 = _gaussian_energy(pos, w)
        k1 = _gaussian_energy(prop, w)
        got = mala_log_ratio(pos, prop, zero, zero, k0, k1, w, inv_w, h)
        assert abs(got - 0.25 * h * h * (k0 - k1)) <= 1e-12 * max(1.0, abs(k0 - k1))


def test_mala_log_ratio_vanishes_with_step_size():
    spec = GridSpec(8, m=1.0)
    M = 2
    idx = _ball_index(spec.n_grid, float(M))
    w = spec.dispersion.reshape(-1)[idx]
    inv_w = 1.0 / w
    alpha = alpha_m(spec.m, M)
    gen = np.random.default_rng(8)
    pos = _sample_ball(gen, spec, M, inv_w, 2)
    h = 1e-3
    z = _sample_ball(gen, spec, M, inv_w, 2)
    grad = _ball_grad(pos, spec, alpha, float(M))
    prop = (1 - 0.5 * h * h) * pos - 0.5 * h * h * grad * inv_w + h * z
    grad_prop = _ball_grad(prop, spec, alpha, float(M))

    def energy(p):
        return _gaussian_energy(p, w) + gibbs_potential(at_rest(p, spec, M), alpha)

    log_ratio = mala_log_ratio(pos, prop, grad, grad_prop, energy(pos), energy(prop),
                               w, inv_w, h)
    assert abs(log_ratio) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        GibbsSamplerConfig(1, 2, 1.0, -0.1, 100, 10)
    with pytest.raises(ValueError):
        GibbsSamplerConfig(1, 2, 1.0, 0.5, 100, 100)
    with pytest.raises(ValueError):
        GibbsSamplerConfig(1, 2, 1.0, 0.5, 100, 10, thin=0)


def test_sampler_is_deterministic_in_the_seed():
    spec = GridSpec(8, m=1.0)
    cfg = GibbsSamplerConfig(2, 2, 1.0, 0.6, 60, 20, thin=4,
                             acceptance_band=(0.0, 1.0))
    a = sample_gibbs(spec, cfg, root_seed=41)
    b = sample_gibbs(spec, cfg, root_seed=41)
    c = sample_gibbs(spec, cfg, root_seed=42)
    assert np.array_equal(a.draws.pos, b.draws.pos)
    assert np.array_equal(a.draws.vel, b.draws.vel)
    assert not np.array_equal(a.draws.pos, c.draws.pos)
    assert len(a) == cfg.n_samples


def test_free_chain_reproduces_equilibrium_variances():
    # interaction off: the target is the exact product Gaussian, so mode
    # variances and velocity variances must match it within Monte Carlo error
    spec = GridSpec(8, m=1.0)
    cfg = GibbsSamplerConfig(1, 2, 1.0, 0.8, 12000, 2000, thin=1,
                             interaction=False, acceptance_band=(0.0, 1.0))
    samples = sample_gibbs(spec, cfg, root_seed=7)
    tau = max(integrated_autocorrelation(samples.series), 1.0)
    k_eff = len(samples) / tau
    for mode in [(0, 0), (1, 0), (1, 1), (2, 0)]:
        report = gibbs_vs_gaussian_covariance(samples, 0, mode)
        se = report["gaussian_variance"] * np.sqrt(2.0 / k_eff)
        assert abs(report["variance"] - report["gaussian_variance"]) < 4.5 * se
    vel = samples.draws.vel
    idx_var = np.mean(np.abs(vel) ** 2, axis=0)[0]
    mask = ball_mask(spec, 2.0).reshape(-1)[samples.draws.index]
    assert np.all(mask)
    assert abs(np.mean(idx_var) - 1.0) < 0.1
    outside = gibbs_vs_gaussian_covariance(samples, 0, (3, 1))
    assert outside["variance"] == 0.0
    assert outside["gaussian_variance"] == 0.0


def test_interacting_chain_matches_quadrature_oracle():
    # N = 1, M = 1: five real coefficients, so the truncated Gibbs measure
    # can be integrated directly and the chain's mode variances compared
    # against exact values.  The constant mode rides the Wick wells at
    # u^2 = 3 alpha and its marginal is wide, so it gets a trapezoid rule
    # (spectrally accurate here); the four pair coefficients stay close to
    # Gaussian and use Gauss-Hermite nodes.
    spec = GridSpec(8, m=1.0)
    m = spec.m
    M = 1
    alpha = alpha_m(m, M)

    nodes, weights = np.polynomial.hermite.hermgauss(15)
    x_vals = np.linspace(-7.0, 7.0, 141)
    x_dens = np.exp(-0.5 * m * x_vals**2)
    pair_vals = nodes / np.sqrt(m + 1.0)       # weight exp(-(m+1) a^2)
    xs = 2.0 * np.pi * np.arange(spec.n_grid) / spec.n_grid
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    basis = np.stack([np.cos(x1), -np.sin(x1), np.cos(x2), -np.sin(x2)])
    basis = basis.reshape(4, -1)

    aa, bb, cc, dd = np.meshgrid(pair_vals, pair_vals, pair_vals, pair_vals,
                                 indexing="ij")
    coeffs4 = np.stack([aa, bb, cc, dd]).reshape(4, -1).T
    w4 = (weights[:, None, None, None] * weights[None, :, None, None]
          * weights[None, None, :, None] * weights[None, None, None, :]).reshape(-1)
    u_pairs = 2.0 * coeffs4 @ basis

    def posterior_moments(interaction):
        total = 0.0
        moment_x = 0.0
        moment_pair = 0.0
        for x0, wx in zip(x_vals, x_dens):
            if interaction:
                u = x0 + u_pairs
                u2 = u * u
                v = np.mean(0.25 * (u2 * (u2 - 6 * alpha) + 3 * alpha**2), axis=1)
                dens = wx * w4 * np.exp(-v)
            else:
                dens = wx * w4 * np.ones(len(w4))
            total += np.sum(dens)
            moment_x += np.sum(dens) * x0 * x0
            moment_pair += np.sum(dens * (coeffs4[:, 0] ** 2 + coeffs4[:, 1] ** 2))
        return moment_x / total, moment_pair / total

    gauss_x, gauss_pair = posterior_moments(False)
    assert abs(gauss_x - 1.0 / m) < 1e-10
    assert abs(gauss_pair - 1.0 / (m + 1.0)) < 1e-10

    oracle_x, oracle_pair = posterior_moments(True)
    oracle_mode = oracle_pair          # E|u_(1,0)|^2 = E[a^2 + b^2]
    # the Wick subtraction spreads the constant mode into the wells while
    # the quartic curvature in that background stiffens the nonzero modes
    assert oracle_x > 1.0 / m
    assert oracle_mode < 1.0 / (m + 1.0)

    cfg = GibbsSamplerConfig(1, M, m, 0.5, 24000, 2000, thin=1)
    samples = sample_gibbs(spec, cfg, root_seed=13)
    x_series = samples.mode_values(0, (0, 0)).real
    pair_series = np.abs(samples.mode_values(0, (1, 0))) ** 2

    def batch_mean_se(series, f):
        batches = np.array_split(series, 20)
        vals = np.array([f(b) for b in batches])
        return np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))

    var_x, se_x = batch_mean_se(x_series, lambda b: np.mean(b * b))
    var_mode, se_mode = batch_mean_se(pair_series, np.mean)
    assert abs(var_x - oracle_x) < 4 * se_x
    assert abs(var_mode - oracle_mode) < 4 * se_mode


def test_mode_variance_se_is_that_of_a_real_or_a_complex_mode():
    # independent draws: |c|^2 has sd sqrt(2) * mean on a self-conjugate
    # (real) mode and sd = mean on a complex one
    spec = GridSpec(8, m=1.0)
    vals = np.array([1.0, 2.0, 1j, 3.0 - 1j, 2j])   # mean |c|^2 = 4
    modes = [(0, 0), (0, 4), (4, 4), (1, 0), (1, 2), (0, -3)]
    # every mode reads vals (radius inf holds them all), real and complex ones
    positions = np.repeat(vals[:, None, None], spec.n_grid ** 2, axis=2)
    draws = BallEnsemble(spec, np.inf, positions, np.zeros_like(positions))
    samples = GibbsSamples(draws, 1.0, 1.0, np.zeros(len(vals)))
    for mode in modes:
        row = gibbs_vs_gaussian_covariance(samples, 0, mode)
        assert row["variance"] == pytest.approx(4.0, rel=1e-15)
        real = mode in ((0, 0), (0, 4), (4, 4))
        want = 4.0 * np.sqrt((2.0 if real else 1.0) / (len(vals) - 1))
        assert row["se"] == pytest.approx(want, rel=1e-15), mode


def test_acceptance_warning_outside_band():
    spec = GridSpec(8, m=1.0)
    cfg = GibbsSamplerConfig(1, 2, 1.0, 2.5, 400, 100, thin=4)
    with pytest.warns(RuntimeWarning, match="acceptance"):
        sample_gibbs(spec, cfg, root_seed=3)


def test_both_chains_reject_a_config_mass_other_than_the_grids():
    spec = GridSpec(16, 1.0)
    cfg = GibbsSamplerConfig(2, 2, 2.0, 0.3, 5, 0)
    for chain in (sample_gibbs, coupled_gibbs_gaussian_pair):
        with pytest.raises(ValueError, match="config mass 2.0 != grid mass 1.0"):
            chain(spec, cfg, root_seed=1)


def test_coupled_pair_free_chain_is_the_linear_recursion():
    spec = GridSpec(8, m=1.0)
    cfg = GibbsSamplerConfig(2, 2, 1.0, 0.5, 50, 0, thin=1)
    gibbs, gaussian = coupled_gibbs_gaussian_pair(spec, cfg, root_seed=21)

    M, h = cfg.truncation, cfg.step_size
    inv_w = 1.0 / spec.dispersion.reshape(-1)[_ball_index(spec.n_grid, float(M))]
    pos = np.stack([
        _sample_profile(NoiseStream(21, j, NoiseKind.INITIAL).generator(0), spec, M, inv_w)
        for j in range(2)
    ])
    beta = np.sqrt(1.0 - h * h)
    for it in range(50):
        gen = NoiseStream(21, 0, NoiseKind.CHAIN).generator(it)
        z = np.stack([_sample_profile(gen, spec, M, inv_w) for _ in range(2)])
        pos = beta * pos + h * z
    assert np.array_equal(gaussian.pos, pos)
    assert np.array_equal(gibbs.vel, gaussian.vel)
    assert not np.array_equal(gibbs.pos, gaussian.pos)


def full_grid_grad(pos, spec, alpha, truncation):
    """The chain gradient of full-grid positions, zero off the ball; the drift
    itself is the program's."""
    idx = _ball_index(spec.n_grid, float(truncation))
    drift = renormalized_drift(at_rest(pos.reshape(len(pos), -1)[:, idx], spec, truncation), alpha)
    return -_unpack(drift, spec, idx)


def full_grid_pair(spec, cfg, root_seed):
    """The full-grid loop that ran before the chains were packed on the ball,
    with the pCN factor of the packed chains."""
    n, M, h = cfg.n_components, cfg.truncation, cfg.step_size
    mask = ball_mask(spec, M)
    prof = inv_w = np.where(mask, 1.0 / spec.dispersion, 0.0)
    alpha = alpha_m(spec.m, M)
    beta = np.sqrt(1.0 - h * h)

    pos_a = stationary_ensemble(spec, M, root_seed, n).full()[0]
    pos_b = pos_a.copy()
    innovations = NoiseStream(root_seed, 0, NoiseKind.CHAIN)
    for it in range(cfg.chain_length):
        gen = innovations.generator(it)
        z = np.stack([sample_profile_full_grid(gen, spec, M, prof) for _ in range(n)])
        grad = full_grid_grad(pos_a, spec, alpha, float(M))
        pos_a = beta * pos_a - 0.5 * h * h * grad * inv_w + h * z
        pos_b = beta * pos_b + h * z
    gen = NoiseStream(root_seed, 0, NoiseKind.VELOCITY).generator(0)
    vel_prof = np.where(mask, 1.0, 0.0)
    vel = np.stack([sample_profile_full_grid(gen, spec, M, vel_prof) for _ in range(n)])
    return pos_a, pos_b, vel


@pytest.mark.parametrize("n_grid, n, M, h, length", [(8, 2, 2, 0.5, 50), (32, 5, 7, 0.25, 30)])
def test_coupled_pair_matches_the_full_grid_ula_loop(n_grid, n, M, h, length):
    # packing both chains on the ball must not move a bit of either chain
    spec = GridSpec(n_grid, m=1.0)
    cfg = GibbsSamplerConfig(n, M, 1.0, h, length, 0, thin=1)
    gibbs, gaussian = coupled_gibbs_gaussian_pair(spec, cfg, root_seed=21)
    full = full_grid_pair(spec, cfg, 21)
    idx = _ball_index(n_grid, float(M))
    assert not any(np.any(np.delete(a.reshape(n, -1), idx, axis=1)) for a in full)
    pos_a, pos_b, vel = (a.reshape(n, -1)[:, idx] for a in full)
    assert gibbs.pos.tobytes() == pos_a.tobytes()
    assert gaussian.pos.tobytes() == pos_b.tobytes()
    assert gibbs.vel.tobytes() == vel.tobytes()
    assert gaussian.vel.tobytes() == vel.tobytes()


def full_grid_mala(spec, cfg, root_seed):
    """The full-grid MALA loop that ran before the chain was packed on the ball:
    thinned full-grid positions, the series and the acceptance rate."""
    n, M, h = cfg.n_components, cfg.truncation, cfg.step_size
    mask = ball_mask(spec, M)
    w = np.where(mask, spec.dispersion, 0.0)
    prof = inv_w = np.where(mask, 1.0 / spec.dispersion, 0.0)
    alpha = alpha_m(spec.m, M) if cfg.interaction else 0.0

    pos = stationary_ensemble(spec, M, root_seed, n).full()[0]
    innovations = NoiseStream(root_seed, 0, NoiseKind.CHAIN)

    def grad_of(p):
        if not cfg.interaction:
            return np.zeros_like(p)
        return full_grid_grad(p, spec, alpha, float(M))

    def potential_of(p):
        if not cfg.interaction:
            return 0.0
        return gibbs_potential(ball_ensemble(spec, p, radius=M), alpha)

    grad = grad_of(pos)
    energy = _gaussian_energy(pos, w) + potential_of(pos)

    keep_pos = []
    series = []
    accepted = 0
    proposed = 0
    beta = 1.0 - 0.5 * h * h
    for it in range(cfg.chain_length):
        gen = innovations.generator(it)
        z = np.stack([sample_profile_full_grid(gen, spec, M, prof) for _ in range(n)])
        prop = beta * pos - 0.5 * h * h * grad * inv_w + h * z
        grad_prop = grad_of(prop)
        energy_prop = _gaussian_energy(prop, w) + potential_of(prop)
        log_ratio = mala_log_ratio(pos, prop, grad, grad_prop, energy, energy_prop,
                                   w, inv_w, h)
        if it >= cfg.burn_in:
            proposed += 1
        if np.log(gen.uniform()) < log_ratio:
            pos, grad, energy = prop, grad_prop, energy_prop
            if it >= cfg.burn_in:
                accepted += 1
        if it >= cfg.burn_in:
            half = pos[0][:, :spec.nyquist + 1]
            u1 = np.fft.irfft2(half, s=spec.shape(), norm="forward")
            series.append(np.mean(u1 * u1) - alpha)
            if (it - cfg.burn_in) % cfg.thin == 0:
                keep_pos.append(pos.copy())
    return np.stack(keep_pos), np.asarray(series), accepted / max(proposed, 1)


@pytest.mark.parametrize("interaction", [True, False])
def test_sample_gibbs_matches_the_full_grid_mala_loop(interaction):
    # the packed energies sum in another order; the chain must still take
    # the same accept decisions and land on the same bits; the series is
    # the real inverse transform of the half spectrum, as the chain's is
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(3, 3, 1.0, 0.5, 300, 50, thin=5, interaction=interaction,
                             acceptance_band=(0.0, 1.0))
    samples = sample_gibbs(spec, cfg, root_seed=31)
    positions, series, accept_rate = full_grid_mala(spec, cfg, 31)
    assert 0.0 < accept_rate < 1.0
    assert samples.draws.full()[0].tobytes() == positions.tobytes()
    assert samples.series.tobytes() == series.tobytes()
    assert samples.accept_rate == accept_rate


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("radius", [0, 2, 7])
def test_sample_ball_stacks_sequential_profile_draws(n, radius):
    # radius 7 is nyquist - 1 on the 16-point grid
    spec = GridSpec(16, m=1.0)
    prof = np.where(ball_mask(spec, radius), 1.0 / spec.dispersion, 0.0)
    idx = _ball_index(spec.n_grid, float(radius))
    var = prof.reshape(-1)[idx]
    stream = NoiseStream(4, 0, NoiseKind.CHAIN)
    packed = _sample_ball(stream.generator(9), spec, radius, var, n)
    assert packed.shape == (n, idx.size)
    gen = stream.generator(9)
    assert np.array_equal(packed, np.stack([_sample_profile(gen, spec, radius, var)
                                            for _ in range(n)]))
    gen = stream.generator(9)
    full = np.stack([sample_profile_full_grid(gen, spec, radius, prof) for _ in range(n)])
    assert np.array_equal(packed, full.reshape(n, -1)[:, idx])
    assert not np.any(np.delete(full.reshape(n, -1), idx, axis=1))


def test_coupled_pair_free_side_keeps_the_equilibrium_variances():
    # b <- beta b + h z with z ~ N(0, C) keeps N(0, C) only when beta^2 + h^2 = 1;
    # beta = 1 - h^2/2 widens it to C / (1 - h^2/4), 1.067 C at h = 0.5
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(2048, 3, 1.0, 0.5, 100, 0, thin=1)
    _, gaussian = coupled_gibbs_gaussian_pair(spec, cfg, root_seed=7)
    ratio = np.abs(gaussian.pos) ** 2 * spec.dispersion.reshape(-1)[gaussian.index]
    per_component = np.mean(ratio, axis=1)
    mean = np.mean(per_component)
    se = np.std(per_component, ddof=1) / np.sqrt(len(per_component))
    assert abs(mean - 1.0) < 3.0 * se, (mean, se)


def test_coupled_pair_difference_is_small_relative_to_the_fields():
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(16, 3, 1.0, 0.4, 300, 0, thin=1)
    gibbs, gaussian = coupled_gibbs_gaussian_pair(spec, cfg, root_seed=5)
    diff = np.sqrt(np.mean(np.abs(gibbs.pos - gaussian.pos) ** 2))
    size = np.sqrt(np.mean(np.abs(gaussian.pos) ** 2))
    assert 0 < diff < 0.35 * size


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_coupled_pair_divergence_raises():
    # the unadjusted interacting chain has no rejection step, so an
    # unstable step size must fail loudly instead of returning NaN fields
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(2, 3, 1.0, 1.0, 200, 0, thin=1)
    with pytest.raises(ValueError, match="diverged"):
        coupled_gibbs_gaussian_pair(spec, cfg, root_seed=3)


def test_coupled_pair_without_interaction_is_one_chain():
    # with no drift term the interacting side takes the free side's steps, bit for bit
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(4, 3, 1.0, 0.4, 50, 0, thin=1, interaction=False)
    gibbs, gaussian = coupled_gibbs_gaussian_pair(spec, cfg, root_seed=5)
    assert np.array_equal(gibbs.pos, gaussian.pos)
    assert np.array_equal(gibbs.vel, gaussian.vel)


def test_batched_evolution_matches_per_sample_stepper():
    spec = GridSpec(16, m=1.0)
    k_total, n, M, dt, steps = 2, 3, 3, 0.05, 3
    cfg = GibbsSamplerConfig(n, M, 1.0, 0.6, 40, 20, thin=10,
                             acceptance_band=(0.0, 1.0))
    samples = sample_gibbs(spec, cfg, root_seed=17)
    assert len(samples) >= k_total
    alpha = alpha_m(spec.m, M)

    evolved = evolve_gibbs_samples(samples.draws[:k_total], alpha, dt, steps, noise_seed=900)
    assert (evolved.spec, evolved.radius, evolved.pos.shape[0]) == (spec, M, k_total)
    for k in range(k_total):
        ens = samples.draws[k]
        streams = [NoiseStream(900, k * n + j, NoiseKind.DRIVE) for j in range(n)]
        for s in range(steps):
            ens = step_renormalized_wave(ens, streams, s, dt, alpha)
        assert np.array_equal(ens.pos, evolved.pos[k])
        assert np.array_equal(ens.vel, evolved.vel[k])


def test_invariance_report_is_exact_at_zero_horizon():
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(2, 2, 1.0, 0.6, 400, 100, thin=5,
                             acceptance_band=(0.0, 1.0))
    report = invariance_check(spec, cfg, root_seed=23, horizon=0.0, dt=0.1)
    names = {r["observable"] for r in report.rows}
    assert names == {"wick_square_int", "low_mode_energy", "potential"}
    for row in report.rows:
        assert row["ks_stat"] == 0.0
        assert row["p_value"] == 1.0
        assert row["mean_t0"] == row["mean_t1"]


def test_invariance_report_csv_roundtrip(tmp_path):
    spec = GridSpec(16, m=1.0)
    cfg = GibbsSamplerConfig(2, 2, 1.0, 0.6, 300, 100, thin=10,
                             acceptance_band=(0.0, 1.0))
    report = invariance_check(spec, cfg, root_seed=2, horizon=0.2, dt=0.05)
    path = tmp_path / "invariance.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "observable,ks_stat,p_value,mean_t0,se_t0,mean_t1,se_t1"
    assert len(lines) == 4


def test_invariance_table_bytes_are_pinned_in_column_order(tmp_path):
    # the columns come by name, whatever order a row's keys have
    row = {"se_t1": 0.125, "observable": "potential", "p_value": 1.0, "mean_t1": -1 / 3,
           "ks_stat": 0.0, "se_t0": 1e-17, "mean_t0": 2 / 3}
    path = tmp_path / "invariance.csv"
    InvarianceReport([row]).to_csv(path)
    assert path.read_bytes() == (
        b"observable,ks_stat,p_value,mean_t0,se_t0,mean_t1,se_t1\n"
        b"potential,0,1,0.66666666666666663,1.0000000000000001e-17,-0.33333333333333331,0.125\n")


def test_integrated_autocorrelation_on_known_series():
    gen = np.random.default_rng(1)
    white = gen.normal(size=4000)
    assert abs(integrated_autocorrelation(white) - 1.0) < 0.25
    rho = 0.9
    ar = np.empty(40000)
    ar[0] = 0.0
    for i in range(1, ar.size):
        ar[i] = rho * ar[i - 1] + gen.normal()
    tau = integrated_autocorrelation(ar)
    expected = (1 + rho) / (1 - rho)
    assert abs(tau - expected) < 0.25 * expected
