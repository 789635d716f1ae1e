from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sigma_wave import cli, dynamics, gibbs, grid, noise
from sigma_wave.diagnostics import difference_norms, energy_en
from sigma_wave.dynamics import (
    BlowupError,
    _drift_tables,
    _ensemble_drift,
    _meanfield_drift,
    _renormalized_drift,
    HlsmState,
    MeanFieldState,
    _step_count,
    renormalized_drift,
    run_trajectory,
    step_deterministic_nlw,
    step_hlsm,
    step_linear_ensemble,
    step_meanfield,
    step_renormalized_wave,
)
from sigma_wave.grid import (BallEnsemble, GridSpec, _ball_index, _to_coeffs, _to_grid, _unpack,
                             ball_mask, hermitian_defect, random_field)
from sigma_wave.noise import (
    NoiseKind,
    NoiseStream,
    RenormConstants,
    _transition_tables,
)
from sigma_wave.wick import hermite

from oracles import (ball_ensemble, draw_kick_full_grid, factored_ensemble_drift,
                     hlsm_rhs_reference, residual_drift, zero_renorm)
from test_bench_sites import count_traced_ffts

SPEC = GridSpec(16, 1.0)


def random_ensemble(spec, n, seed, amplitude=0.5, truncation=3.0, radius=np.inf):
    gen = np.random.Generator(np.random.Philox(seed))
    pos = np.stack([random_field(spec, gen, decay=2.5, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    vel = np.stack([random_field(spec, gen, decay=2.5, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    return ball_ensemble(spec, pos, vel, radius)


def table(m, dt, n_steps, M=4):
    return RenormConstants.build(m, M, dt, n_steps)


def hlsm_state(n, seed, dt=0.1, n_steps=20, dealias=True, noisy=True):
    renorm = table(1.0, dt, n_steps) if noisy else zero_renorm(1.0, dt, n_steps)
    state = HlsmState.zero(SPEC, n, renorm, root_seed=seed, dealias=dealias)
    v = random_ensemble(SPEC, n, seed + 1, radius=state.v.radius)
    psi = random_ensemble(SPEC, n, seed + 2, radius=4.0) if noisy else state.psi
    return HlsmState(v, psi, state.streams, 0.0, 0, renorm)


@pytest.mark.parametrize("n_grid", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["zero", "two", "below_nyquist", "dealias", "every"])
def test_half_spectrum_transforms_match_full_complex_ffts(n_grid, kind):
    spec = GridSpec(n_grid, 1.0)
    radius = {"zero": 0.0, "two": 2.0, "below_nyquist": spec.nyquist - 1.0,
              "dealias": spec.dealias_radius, "every": np.inf}[kind]
    mask, idx = ball_mask(spec, radius), _ball_index(n_grid, radius)
    gen = np.random.default_rng(n_grid)
    for lead in ((3,), (2, 3)):
        g = gen.standard_normal(lead + spec.shape())
        coeffs = np.fft.fft2(g, norm="forward")
        packed = coeffs.reshape(lead + (-1,))[..., idx]
        want = np.fft.ifft2(np.where(mask, coeffs, 0.0), norm="forward").real
        got = _to_grid(packed, n_grid, radius)
        assert got.shape == g.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        got = _to_coeffs(g, radius)
        assert got.shape == packed.shape
        assert np.max(np.abs(got - packed)) <= 1e-13 * np.max(np.abs(g))
        for c in _unpack(got, spec, idx).reshape((-1,) + spec.shape()):
            assert hermitian_defect(c) == 0.0
        assert np.all(_to_grid(np.zeros_like(packed), n_grid, radius) == 0.0)
        assert np.all(_to_coeffs(np.zeros_like(g), radius) == 0.0)


def unpruned_transforms(packed, g, n, radius):
    """The full-width half-spectrum path: ``irfft2`` of the packed modes'
    ``(n, n/2+1)`` half spectrum, and the packed modes of ``rfft2(g)``, each
    read from its stored half or as the conjugate of its mirror."""
    h, idx = n // 2 + 1, _ball_index(n, radius)
    lead = packed.shape[:-1]
    half = _unpack(packed, GridSpec(n, 1.0), idx)[..., :h]
    values = np.fft.irfft2(half, s=(n, n), norm="forward")
    r = np.fft.rfft2(g, norm="forward")
    i, j = np.divmod(idx, n)
    direct = (j < h) & ~((j % (n // 2) == 0) & (i > n // 2))
    coeffs = np.empty(lead + (idx.size,), dtype=np.complex128)
    coeffs[..., direct] = r[..., i[direct], j[direct]]
    coeffs[..., ~direct] = np.conj(r[..., (-i[~direct]) % n, (-j[~direct]) % n])
    return values, coeffs


@pytest.mark.parametrize("n_grid, radius, pruned", [
    (16, -1.0, True), (16, 0.0, True), (16, 3.0, True), (16, 4.0, True),
    (32, 7.0, True), (32, 8.0, True), (64, 8.0, True), (64, 64 / 3, True),
    (128, 31.0, True), (128, 32.0, True), (16, np.inf, False)])
def test_pruned_transforms_equal_the_unpruned_ones_bit_for_bit(n_grid, radius, pruned):
    # every ball is transformed on the half-spectrum columns it reaches, all
    # n/2+1 of them only when it reaches the Nyquist column; small balls,
    # balls past half the columns (the dealias balls among them), the empty
    # ball and every mode give the full-width path's bits
    width = grid._half_spectrum_index(n_grid, radius)[0]
    assert (width < n_grid // 2 + 1) == pruned
    idx = _ball_index(n_grid, radius)
    gen = np.random.default_rng(n_grid)
    for lead in ((3,), (2, 3)):
        g = gen.standard_normal(lead + (n_grid, n_grid))
        packed = np.fft.fft2(g, norm="forward").reshape(lead + (-1,))[..., idx]
        values, coeffs = unpruned_transforms(packed, g, n_grid, radius)
        assert _to_grid(packed, n_grid, radius).tobytes() == values.tobytes()
        assert _to_coeffs(g, radius).tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("n_grid", [8, 16, 64])
def test_packed_grid_entry_is_the_scattered_transform_bit_for_bit(n_grid):
    # the grid values of a stack packed on its ball are those of the same
    # data packed on any larger ball, bit for bit
    spec = GridSpec(n_grid, 1.0)
    for M in (-1.0, 0.0, 2.0, float(int(spec.dealias_radius))):
        ens = random_ensemble(spec, 3, seed=n_grid, truncation=M, radius=M)
        got = _to_grid(ens.pos, n_grid, M)
        full = ens.full()[0].reshape(3, -1)
        for radius in (M, spec.dealias_radius, np.inf):
            wider = full[:, _ball_index(n_grid, radius)]
            assert np.array_equal(got, _to_grid(wider, n_grid, radius))


def test_factored_rhs_matches_double_loop():
    for dealias in (True, False):
        state = hlsm_state(3, seed=11, dealias=dealias)
        got = residual_drift(state)
        ref = hlsm_rhs_reference(state)
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_ensemble_drift_is_the_factored_six_term_coupling():
    # one transform of u = v + psi gives the drift of v and psi transformed
    # apart, to rounding, at the hlsm-trajectory size with stationary psi
    spec = GridSpec(64, 1.0)
    state = HlsmState.stationary(spec, 64, RenormConstants.build(1.0, 8, 0.01, 2), root_seed=3)
    v = random_ensemble(spec, 64, 4, truncation=spec.dealias_radius, radius=state.v.radius)
    c = state.renorm.sigma_at(0)
    assert c > 0
    got = _ensemble_drift(v.pos, state.psi, c, v.radius)
    want = factored_ensemble_drift(v.pos, state.psi, c, v.radius)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_single_component_rhs_is_wick_cubic():
    state = hlsm_state(1, seed=5, dealias=False)
    c = state.renorm.sigma_at(0)
    u = np.fft.ifft2(state.combined().full()[0][0], norm="forward").real
    expected = np.fft.fft2(-hermite(3, u, c), norm="forward").reshape(-1)
    got = residual_drift(state)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_rhs_with_zero_noise_is_plain_cubic_coupling():
    state = hlsm_state(3, seed=9, dealias=False, noisy=False)
    vg = np.fft.ifft2(state.v.full()[0], norm="forward").real
    expected = np.fft.fft2(-np.mean(vg * vg, axis=0)[None] * vg, norm="forward")
    assert np.max(np.abs(residual_drift(state) - expected.reshape(3, -1))) <= 1e-14


def test_zero_state_is_fixed_point_of_step():
    renorm = zero_renorm(1.0, 0.1, 10)
    state = HlsmState.zero(SPEC, 2, renorm, root_seed=0)
    for _ in range(5):
        state = step_hlsm(state)
    assert np.all(state.v.pos == 0) and np.all(state.v.vel == 0)
    assert np.all(state.psi.pos == 0)


def test_a_stationary_start_holds_the_wick_constant_at_equilibrium():
    # psi starts at equilibrium, where E[psi_M^2] = alpha_M at every step;
    # a zero start keeps the ramp sigma_M(t) from 0
    renorm = RenormConstants.build(1.0, 3, 0.1, 4)
    for system in (HlsmState, MeanFieldState):
        state = system.stationary(GridSpec(16, 1.0), 2, renorm, 0)
        assert np.array_equal(state.renorm.sigma, np.full(5, renorm.alpha))
        assert state.renorm.alpha == renorm.alpha and state.renorm.times is renorm.times
        assert system.zero(GridSpec(16, 1.0), 2, renorm, 0).renorm is renorm


@pytest.mark.parametrize("start", ["zero", "stationary"])
def test_residual_states_reject_renorm_constants_of_another_mass(start):
    renorm = RenormConstants.build(2.0, 3, 0.1, 4)
    for system in (HlsmState, MeanFieldState):
        with pytest.raises(ValueError, match="renorm mass 2 != grid mass 1"):
            getattr(system, start)(GridSpec(16, 1.0), 2, renorm, 0)


def test_meanfield_zero_residual_is_exact_fixed_point():
    # every drift term carries v or an average of v, so zero survives exactly
    renorm = table(1.0, 0.1, 60)
    state = MeanFieldState.stationary(SPEC, 4, renorm, root_seed=3)
    for _ in range(50):
        state = step_meanfield(state)
    assert np.all(state.v.pos == 0) and np.all(state.v.vel == 0)
    assert not np.all(state.psi.pos == 0)


def test_meanfield_rhs_antisymmetric_pair():
    renorm = table(1.0, 0.1, 10)
    base = MeanFieldState.zero(SPEC, 2, renorm, root_seed=7)
    v1 = random_field(SPEC, np.random.Generator(np.random.Philox(40)), truncation=3).coeffs
    p1 = random_field(SPEC, np.random.Generator(np.random.Philox(41)), truncation=3).coeffs
    v = ball_ensemble(SPEC, np.stack([v1, -v1]), radius=base.v.radius)
    psi = ball_ensemble(SPEC, np.stack([p1, -p1]), radius=4.0)
    state = MeanFieldState(v, psi, base.streams, 0.0, 0, renorm)
    rhs = residual_drift(state)
    assert np.max(np.abs(rhs[0] + rhs[1])) <= 1e-13


def test_permutation_equivariance():
    n = 3
    state = hlsm_state(n, seed=21)
    perm = [2, 0, 1]
    permuted = HlsmState(
        BallEnsemble(SPEC, state.v.radius, state.v.pos[perm], state.v.vel[perm]),
        BallEnsemble(SPEC, state.psi.radius, state.psi.pos[perm], state.psi.vel[perm]),
        tuple(state.streams[p] for p in perm),
        state.time, state.step, state.renorm)
    a, b = state, permuted
    for _ in range(3):
        a = step_hlsm(a)
        b = step_hlsm(b)
    np.testing.assert_allclose(b.v.pos, a.v.pos[perm], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(b.psi.pos, a.psi.pos[perm], rtol=1e-12, atol=1e-14)


def test_dealias_output_has_no_high_modes():
    state = hlsm_state(2, seed=33, dealias=True)
    out = step_hlsm(state)
    high = ~ball_mask(SPEC, SPEC.dealias_radius)
    assert out.v.pos.shape == (2, int(np.sum(~high)))
    pos, vel = out.v.full()
    assert np.all(pos[:, high] == 0)
    assert np.all(vel[:, high] == 0)


def test_step_validates_table_length():
    state = hlsm_state(2, seed=1, dt=0.1, n_steps=2)
    state = step_hlsm(step_hlsm(state))
    with pytest.raises(ValueError, match="renormalization table exhausted"):
        step_hlsm(state)


def test_state_validates_component_counts():
    renorm = table(1.0, 0.1, 4)
    v = BallEnsemble.zeros(SPEC, SPEC.dealias_radius, 3)
    streams = (NoiseStream(0, 0, NoiseKind.DRIVE),) * 3
    with pytest.raises(ValueError):
        HlsmState(v, BallEnsemble.zeros(SPEC, 4.0, 2), streams, 0.0, 0, renorm)
    with pytest.raises(ValueError, match="ball"):
        HlsmState(v, BallEnsemble.zeros(SPEC, 3.0, 3), streams, 0.0, 0, renorm)
    # M = 6 lies beyond the 2/3-rule radius 16/3: allowed only without
    # dealiasing, where v holds every mode
    wide = table(1.0, 0.1, 4, M=6)
    HlsmState(BallEnsemble.zeros(SPEC, np.inf, 3), BallEnsemble.zeros(SPEC, 6.0, 3), streams,
              0.0, 0, wide)
    with pytest.raises(ValueError, match="dealias"):
        HlsmState(v, BallEnsemble.zeros(SPEC, 6.0, 3), streams, 0.0, 0, wide)


def test_linear_ensemble_matches_per_component_transitions():
    # oracle: the full-grid exact transition, one component at a time
    streams = tuple(NoiseStream(50, j, NoiseKind.DRIVE) for j in range(3))
    ens = BallEnsemble.zeros(SPEC, 4.0, 3)
    for step in range(4):
        ens = step_linear_ensemble(ens, streams, step, 0.25)
    pos, vel = ens.full()
    (s11, s12, s21, s22), chol = _transition_tables(SPEC, 0.25)
    for j, stream in enumerate(streams):
        p = v = np.zeros(SPEC.shape(), complex)
        for step in range(4):
            ex, ev = draw_kick_full_grid(stream.generator(step), SPEC, 4.0, chol)
            p, v = s11 * p + s12 * v + ex, s21 * p + s22 * v + ev
        assert np.array_equal(pos[j], p)
        assert np.array_equal(vel[j], v)


def test_kick_loop_rejects_a_stream_count_other_than_the_components():
    # with two streams for three components, component 2 used to stay at zero
    zero = BallEnsemble.zeros(SPEC, 4.0, 3)
    for count in (2, 4):
        streams = tuple(NoiseStream(50, j, NoiseKind.DRIVE) for j in range(count))
        with pytest.raises(ValueError, match="streams"):
            step_linear_ensemble(zero, streams, 0, 0.25)
        with pytest.raises(ValueError, match="streams"):
            step_renormalized_wave(zero, streams, 0, 0.25, alpha=0.0)


def test_renormalized_wave_shares_noise_with_linear_step():
    # from a zero state the linear output IS the kick, so the interacting
    # output must differ from it by the corrector drift stage alone
    streams = tuple(NoiseStream(8, j, NoiseKind.DRIVE) for j in range(2))
    zero = BallEnsemble.zeros(SPEC, 4.0, 2)
    a = step_renormalized_wave(zero, streams, 0, 0.2, alpha=0.0)
    b = step_linear_ensemble(zero, streams, 0, 0.2)
    f1 = renormalized_drift(b, 0.0)
    _, (gx, gv, w1x, w1v) = _drift_tables(SPEC, 0.2, 0.5)
    w1x, w1v = w1x.reshape(-1)[b.index], w1v.reshape(-1)[b.index]
    assert np.max(np.abs(a.pos - (b.pos + w1x[None] * f1))) <= 1e-15
    assert np.max(np.abs(a.vel - (b.vel + w1v[None] * f1))) <= 1e-15


def test_renormalized_drift_single_component_is_wick_cubic():
    ens = random_ensemble(SPEC, 1, seed=61)
    alpha = 0.8
    ug = np.fft.ifft2(ens.full()[0][0], norm="forward").real
    expected = np.fft.fft2(-hermite(3, ug, alpha), norm="forward").reshape(-1)
    got = renormalized_drift(ens, alpha)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def reference_trajectory(ens0, drift, gamma, t_end):
    """High-accuracy method-of-lines reference for the semidiscrete system on
    the ball of ``ens0``; ``drift`` maps packed positions to packed forcing."""
    shape, size = ens0.pos.shape, ens0.pos.size
    lam = SPEC.dispersion.reshape(-1)[ens0.index]

    def pack(p, v):
        return np.concatenate([p.real.ravel(), p.imag.ravel(),
                               v.real.ravel(), v.imag.ravel()])

    def unpack(y):
        pr, pi, vr, vi = y[:size], y[size:2 * size], y[2 * size:3 * size], y[3 * size:]
        return ((pr + 1j * pi).reshape(shape), (vr + 1j * vi).reshape(shape))

    def rhs(_, y):
        p, v = unpack(y)
        f = drift(p)
        dv = -2.0 * gamma * v - lam[None] * p + f
        return pack(v, dv)

    sol = solve_ivp(rhs, (0.0, t_end), pack(ens0.pos, ens0.vel), method="DOP853",
                    rtol=1e-11, atol=1e-12)
    return unpack(sol.y[:, -1])


def fitted_order(errors, dts):
    return np.polyfit(np.log(dts), np.log(errors), 1)[0]


def test_step_hlsm_second_order_in_dt():
    n, t_end = 2, 0.75
    v0 = random_ensemble(SPEC, n, seed=71, radius=SPEC.dealias_radius)
    empty = BallEnsemble.zeros(SPEC, -1, n)

    def drift(p):
        return _ensemble_drift(p, empty, 0.0, SPEC.dealias_radius)

    ref_pos, _ = reference_trajectory(v0, drift, 0.5, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        renorm = zero_renorm(1.0, dt, k)
        state = HlsmState(v0, empty,
                          tuple(NoiseStream(0, j, NoiseKind.DRIVE) for j in range(n)),
                          0.0, 0, renorm)
        for _ in range(k):
            state = step_hlsm(state)
        errs.append(np.max(np.abs(state.v.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_step_hlsm_second_order_with_time_dependent_wick_constant():
    # sigma_M(t) grows from 0, so each drift stage must read it at its own
    # time; M = -1 empties the noise ball and keeps the run deterministic
    n, t_end = 2, 0.5
    v0 = random_ensemble(SPEC, n, seed=75, radius=SPEC.dealias_radius)
    finals = {}
    for k in (8, 16, 32, 64, 512):
        dt = t_end / k
        renorm = replace(RenormConstants.build(1.0, 4, dt, k), M=-1)
        state = HlsmState(v0, BallEnsemble.zeros(SPEC, -1, n),
                          tuple(NoiseStream(0, j, NoiseKind.DRIVE) for j in range(n)),
                          0.0, 0, renorm)
        for _ in range(k):
            state = step_hlsm(state)
        finals[k] = state.v.pos
    ks = (8, 16, 32, 64)
    errs = [np.max(np.abs(finals[k] - finals[512])) for k in ks]
    assert fitted_order(errs, [t_end / k for k in ks]) >= 1.8


def test_step_meanfield_second_order_in_dt():
    n, t_end = 2, 0.75
    v0 = random_ensemble(SPEC, n, seed=72, radius=SPEC.dealias_radius)
    empty = BallEnsemble.zeros(SPEC, -1, n)

    def drift(p):
        return _meanfield_drift(p, empty, SPEC.dealias_radius)

    ref_pos, _ = reference_trajectory(v0, drift, 0.5, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        renorm = zero_renorm(1.0, dt, k)
        state = MeanFieldState(v0, empty,
                               tuple(NoiseStream(0, r, NoiseKind.DRIVE) for r in range(n)),
                               0.0, 0, renorm)
        for _ in range(k):
            state = step_meanfield(state)
        errs.append(np.max(np.abs(state.v.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_deterministic_nlw_second_order_in_dt():
    n, t_end = 2, 0.75
    u0 = random_ensemble(SPEC, n, seed=73, radius=SPEC.dealias_radius)

    def drift(p):
        return _renormalized_drift(p, SPEC.n_grid, 0.0, SPEC.dealias_radius)

    ref_pos, _ = reference_trajectory(u0, drift, 0.0, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        ens = u0
        for _ in range(k):
            ens = step_deterministic_nlw(ens, dt)
        errs.append(np.max(np.abs(ens.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_renormalized_wave_second_order_in_dt():
    # a ball of radius n_grid holds every mode, and a zero kick turns the noise off
    n, t_end, alpha = 2, 0.75, 0.6
    u0 = random_ensemble(SPEC, n, seed=74, radius=float(SPEC.n_grid))

    def drift(p):
        return renormalized_drift(BallEnsemble(SPEC, u0.radius, p, p), alpha)

    ref_pos, _ = reference_trajectory(u0, drift, 0.5, t_end)
    no_kick = (np.zeros_like(u0.pos), np.zeros_like(u0.pos))
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        ens = u0
        for step in range(k):
            ens = step_renormalized_wave(ens, (), step, dt, alpha, no_kick)
        errs.append(np.max(np.abs(ens.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_renormalized_wave_second_order_in_dt_with_the_noise_on():
    # the flow is exact, so the kick of one step of 2h is F(h) k1 + k2 for the
    # kicks k1, k2 of its two h steps: kicks drawn once at T/256 and summed up
    # level by level put every dt on one noise path, so differences are strong errors
    n, M, t_end, fine, coarse = 4, 3.0, 0.5, 256, (4, 8, 16, 32)
    alpha = noise.alpha_m(SPEC.m, M)
    errs = {k: [] for k in coarse}
    for seed in (61, 62, 63, 64):
        streams = [NoiseStream(seed, j, NoiseKind.DRIVE) for j in range(n)]
        start = noise.stationary_ensemble(SPEC, M, seed, n)
        kicks = {fine: [dynamics._kick_pair((n,), streams, k, SPEC, t_end / fine, M)
                        for k in range(fine)]}
        k = fine
        while k > coarse[0]:
            h = t_end / k
            s11, s12, s21, s22 = noise._ball_tables(SPEC, h, M)[0]
            kicks[k // 2] = [(s11 * x1 + s12 * v1 + x2, s21 * x1 + s22 * v1 + v2)
                             for (x1, v1), (x2, v2) in zip(kicks[k][::2], kicks[k][1::2])]
            # one exact step of 2h fed the summed kick is the two steps of h
            one = step_linear_ensemble(start, (), 0, 2 * h, kicks[k // 2][0])
            two = step_linear_ensemble(step_linear_ensemble(start, (), 0, h, kicks[k][0]),
                                       (), 1, h, kicks[k][1])
            for a, b in ((one.pos, two.pos), (one.vel, two.vel)):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
            k //= 2
        finals = {}
        for k in coarse + (fine,):
            ens = start
            for step, kick in enumerate(kicks[k]):
                ens = step_renormalized_wave(ens, (), step, t_end / k, alpha, kick)
            finals[k] = ens.pos
        for k in coarse:
            errs[k].append(np.max(np.abs(finals[k] - finals[fine])))
    rms = [np.sqrt(np.mean(np.square(errs[k]))) for k in coarse]
    assert fitted_order(rms, [t_end / k for k in coarse]) == pytest.approx(2.0, abs=0.3)


def test_run_trajectory_records_and_reproduces():
    def observe(state):
        return {"v_sq": float(np.sum(np.abs(state.v.pos) ** 2))}

    def make():
        return hlsm_state(2, seed=90, dt=0.1, n_steps=8)

    rec1 = run_trajectory(make(), 8, stride=2, observe=observe)
    rec2 = run_trajectory(make(), 8, stride=2, observe=observe)
    assert len(rec1.times) == 5
    assert np.array_equal(rec1.series["v_sq"], rec2.series["v_sq"])
    zero_len = run_trajectory(make(), 0, observe=observe)
    assert len(zero_len.times) == 1
    with pytest.raises(ValueError):
        run_trajectory(make(), 7, stride=2)


@pytest.mark.parametrize("T,dt", [(0.1, 0.0), (0.1, -0.05), (0.001, 0.01), (-0.1, 0.05),
                                  (0.0, 0.1)])
def test_step_count_needs_a_step_inside_the_horizon(T, dt):
    # dt = 0 raises before T / dt divides by it
    with pytest.raises(ValueError, match="need 0 < dt <= T"):
        _step_count(T, dt)
    assert _step_count(0.1, 0.1) == 1


@pytest.mark.parametrize("stride", [0, -1])
def test_step_count_needs_a_stride_of_at_least_one(stride):
    # stride 0 would divide by zero, and stride -1 divides every step count
    with pytest.raises(ValueError, match="stride must be >= 1"):
        _step_count(1.0, 0.1, stride)


@pytest.mark.parametrize("system", [HlsmState, MeanFieldState])
def test_residual_states_need_at_least_one_component(system):
    with pytest.raises(ValueError, match="at least one component"):
        system.zero(SPEC, 0, zero_renorm(1.0, 0.1, 4), root_seed=0)


def test_run_trajectory_keeps_the_state_after_the_last_step():
    start = hlsm_state(2, seed=94, dt=0.1, n_steps=8)
    want = start
    for _ in range(6):
        want = step_hlsm(want)
    final = run_trajectory(start, 6, stride=3).final
    assert (final.step, final.time) == (want.step, want.time)
    for got, ref in ((final.v, want.v), (final.psi, want.psi)):
        assert got.pos.tobytes() == ref.pos.tobytes() and got.vel.tobytes() == ref.vel.tobytes()
    assert run_trajectory(start, 0).final is start


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_trajectory_detects_blowup(tmp_path):
    state = hlsm_state(2, seed=91, dt=0.1, n_steps=30)
    huge = BallEnsemble(SPEC, state.v.radius, state.v.pos + 1e200, state.v.vel)
    state = HlsmState(huge, state.psi, state.streams, 0.0, 0, state.renorm)
    with pytest.raises(BlowupError):
        run_trajectory(state, 4)
    rec = run_trajectory(hlsm_state(2, seed=92, dt=0.1, n_steps=8), 4,
                         observe=lambda s: {"one": 1.0})
    out = tmp_path / "traj.csv"
    rec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,one"
    assert len(lines) == 6


def test_trajectory_table_bytes_are_pinned(tmp_path):
    series = {"v_h1": np.array([0.0, 1 / 3, 2.5e-20]), "n": np.array([1.0, -7.0, 1e300])}
    path = tmp_path / "trajectory.csv"
    dynamics.TrajectoryRecord(np.array([0.0, 0.1, 0.2]), series, None).to_csv(path)
    assert path.read_bytes() == (
        b"t,v_h1,n\n0,0,1\n0.10000000000000001,0.33333333333333331,-7\n"
        b"0.20000000000000001,2.4999999999999999e-20,1.0000000000000001e+300\n")


def test_blowup_reports_a_start_node_that_is_not_finite():
    # the first bad recording node is the start, not the first one after a step
    state = hlsm_state(2, seed=93, dt=0.1, n_steps=8)
    pos = state.v.pos.copy()
    pos[0, 0] = np.nan
    state = replace(state, v=BallEnsemble(SPEC, state.v.radius, pos, state.v.vel))
    with pytest.raises(BlowupError) as err:
        run_trajectory(state, 4, stride=2)
    assert err.value.time == 0.0


def test_hlsm_component_and_meanfield_replica_share_their_convolution():
    # HLSM component j and replica j key their DRIVE streams alike, so a
    # general-data comparison of the two systems sees the same psi_j
    renorm = table(1.0, 0.1, 5)
    a = HlsmState.zero(SPEC, 2, renorm, root_seed=404)
    b = MeanFieldState.zero(SPEC, 3, renorm, root_seed=404)
    for _ in range(5):
        a, b = step_hlsm(a), step_meanfield(b)
    assert not np.all(a.psi.pos == 0)
    assert np.array_equal(a.psi.pos, b.psi.pos[:2])
    assert np.array_equal(a.psi.vel, b.psi.vel[:2])


def test_no_stepper_scatters_to_a_full_grid(monkeypatch):
    # every stepper, drift, chain and observable runs on packed ball stacks
    # through real FFTs; only snapshots scatter
    def scatter(*args, **kwargs):
        raise AssertionError("a stepper or an observable scattered to a full grid")

    for module in (grid, noise, dynamics, gibbs, cli):
        monkeypatch.setattr(module, "_unpack", scatter, raising=False)
    count_traced_ffts(monkeypatch)
    for system in (HlsmState, MeanFieldState):
        for dealias in (True, False):
            state = system.stationary(SPEC, 2, table(1.0, 0.1, 2), 6, dealias)
            state = replace(state, v=random_ensemble(SPEC, 2, 7, radius=state.v.radius))
            state = step_hlsm(state)
            assert np.all(np.isfinite(state.v.pos))
            assert all(np.isfinite(v) for v in cli._run_observables(1.0)(state).values())
    streams = tuple(NoiseStream(8, j, NoiseKind.DRIVE) for j in range(2))
    ens = random_ensemble(SPEC, 2, 9, truncation=2.0, radius=2.0)
    moved = step_renormalized_wave(ens, streams, 0, 0.1, 0.3)
    step_linear_ensemble(ens, streams, 0, 0.1)
    batch = BallEnsemble(SPEC, 2.0, np.stack([ens.pos, ens.pos]), np.stack([ens.vel, ens.vel]))
    gibbs.evolve_gibbs_samples(batch, 0.3, 0.1, 1, 5)
    gibbs.coupled_gibbs_gaussian_pair(SPEC, 2, 2, 0.3, 3, 5)
    gibbs.sample_gibbs(SPEC, gibbs.GibbsSamplerConfig(2, 2, 0.3, 3, 0, thin=1), 5)
    values = [energy_en(ens, 1.0), *difference_norms([ens], [moved], 0.9, 0),
              gibbs.gibbs_potential(ens, 0.3), *gibbs._invariance_observables(batch, 0.3).values()]
    assert all(np.all(np.isfinite(v)) for v in values)
