from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sigma_wave.dynamics import (
    BlowupError,
    HlsmState,
    MeanFieldState,
    hlsm_rhs,
    hlsm_rhs_reference,
    meanfield_rhs,
    renormalized_drift,
    run_trajectory,
    step_deterministic_nlw,
    step_hlsm,
    step_linear_ensemble,
    step_meanfield,
    step_renormalized_wave,
)
from sigma_wave.grid import ComponentEnsemble, GridSpec, dealias_mask, random_field
from sigma_wave.noise import (
    ConvolutionState,
    NoiseKind,
    NoiseStream,
    RenormConstants,
    step_convolution,
)
from sigma_wave.wick import hermite

SPEC = GridSpec(16, 1.0)


def random_ensemble(spec, n, seed, amplitude=0.5, truncation=3.0):
    gen = np.random.Generator(np.random.Philox(seed))
    pos = np.stack([random_field(spec, gen, decay=2.5, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    vel = np.stack([random_field(spec, gen, decay=2.5, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    return ComponentEnsemble(spec, pos, vel, copy=False)


def table(m, dt, n_steps, M=4):
    return RenormConstants.build(m, M, dt, n_steps)


def hlsm_state(n, seed, dt=0.1, n_steps=20, dealias=True, noisy=True):
    renorm = table(1.0, dt, n_steps) if noisy else RenormConstants.zero(1.0, dt, n_steps)
    state = HlsmState.zero(SPEC, n, renorm, root_seed=seed, dealias=dealias)
    v = random_ensemble(SPEC, n, seed + 1)
    psi = random_ensemble(SPEC, n, seed + 2) if noisy else state.psi
    return HlsmState(v, psi, state.streams, 0.0, 0, renorm, dealias)


def test_factored_rhs_matches_double_loop():
    for dealias in (True, False):
        state = hlsm_state(3, seed=11, dealias=dealias)
        got = hlsm_rhs(state)
        ref = hlsm_rhs_reference(state)
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_single_component_rhs_is_wick_cubic():
    state = hlsm_state(1, seed=5, dealias=False)
    c = state.renorm.sigma_at(0)
    u = np.fft.ifft2(state.v.pos[0] + state.psi.pos[0], norm="forward").real
    expected = np.fft.fft2(-hermite(3, u, c), norm="forward")
    got = hlsm_rhs(state)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_rhs_with_zero_noise_is_plain_cubic_coupling():
    state = hlsm_state(3, seed=9, dealias=False, noisy=False)
    vg = np.fft.ifft2(state.v.pos, norm="forward").real
    expected = np.fft.fft2(-np.mean(vg * vg, axis=0)[None] * vg, norm="forward")
    assert np.max(np.abs(hlsm_rhs(state) - expected)) <= 1e-14


def test_zero_state_is_fixed_point_of_step():
    renorm = RenormConstants.zero(1.0, 0.1, 10)
    state = HlsmState.zero(SPEC, 2, renorm, root_seed=0)
    for _ in range(5):
        state = step_hlsm(state, 0.1)
    assert np.all(state.v.pos == 0) and np.all(state.v.vel == 0)
    assert np.all(state.psi.pos == 0)


def test_meanfield_zero_residual_is_exact_fixed_point():
    # every drift term carries v or an average of v, so zero survives exactly
    renorm = table(1.0, 0.1, 60)
    state = MeanFieldState.stationary(SPEC, 4, renorm, root_seed=3)
    for _ in range(50):
        state = step_meanfield(state, 0.1)
    assert np.all(state.v.pos == 0) and np.all(state.v.vel == 0)
    assert not np.all(state.psi.pos == 0)


def test_meanfield_rhs_antisymmetric_pair():
    renorm = table(1.0, 0.1, 10)
    base = MeanFieldState.zero(SPEC, 2, renorm, root_seed=7)
    v1 = random_field(SPEC, np.random.Generator(np.random.Philox(40)), truncation=3).coeffs
    p1 = random_field(SPEC, np.random.Generator(np.random.Philox(41)), truncation=3).coeffs
    v = ComponentEnsemble(SPEC, np.stack([v1, -v1]), np.zeros((2,) + SPEC.shape(), complex))
    psi = ComponentEnsemble(SPEC, np.stack([p1, -p1]), np.zeros((2,) + SPEC.shape(), complex))
    state = MeanFieldState(v, psi, base.streams, 0.0, 0, renorm)
    rhs = meanfield_rhs(state)
    assert np.max(np.abs(rhs[0] + rhs[1])) <= 1e-13


def test_permutation_equivariance():
    n = 3
    state = hlsm_state(n, seed=21)
    perm = [2, 0, 1]
    permuted = HlsmState(
        ComponentEnsemble(SPEC, state.v.pos[perm], state.v.vel[perm]),
        ComponentEnsemble(SPEC, state.psi.pos[perm], state.psi.vel[perm]),
        tuple(state.streams[p] for p in perm),
        state.time, state.step, state.renorm, state.dealias)
    a, b = state, permuted
    for _ in range(3):
        a = step_hlsm(a, 0.1)
        b = step_hlsm(b, 0.1)
    np.testing.assert_allclose(b.v.pos, a.v.pos[perm], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(b.psi.pos, a.psi.pos[perm], rtol=1e-12, atol=1e-14)


def test_dealias_output_has_no_high_modes():
    state = hlsm_state(2, seed=33, dealias=True)
    out = step_hlsm(state, 0.1)
    high = ~dealias_mask(SPEC)
    assert np.all(out.v.pos[:, high] == 0)
    assert np.all(out.v.vel[:, high] == 0)


def test_step_validates_dt_and_table_length():
    state = hlsm_state(2, seed=1, dt=0.1, n_steps=2)
    with pytest.raises(ValueError):
        step_hlsm(state, 0.2)
    state = step_hlsm(state, 0.1)
    state = step_hlsm(state, 0.1)
    with pytest.raises(ValueError):
        step_hlsm(state, 0.1)


def test_state_validates_component_counts():
    renorm = table(1.0, 0.1, 4)
    v = ComponentEnsemble.zeros(SPEC, 3)
    psi = ComponentEnsemble.zeros(SPEC, 2)
    with pytest.raises(ValueError):
        HlsmState(v, psi, (NoiseStream(0, 0, NoiseKind.DRIVE),) * 3, 0.0, 0, renorm)


def test_linear_ensemble_matches_per_component_transitions():
    streams = tuple(NoiseStream(50, j, NoiseKind.DRIVE) for j in range(3))
    ens = ComponentEnsemble.zeros(SPEC, 3)
    for step in range(4):
        ens = step_linear_ensemble(ens, streams, step, 0.25, truncation=4.0)
    for j, stream in enumerate(streams):
        cs = ConvolutionState.zero(SPEC, stream, truncation=4.0)
        for _ in range(4):
            cs = step_convolution(cs, 0.25)
        assert np.array_equal(ens.pos[j], cs.state.pos.coeffs)
        assert np.array_equal(ens.vel[j], cs.state.vel.coeffs)


def test_kick_loop_rejects_a_stream_count_other_than_the_components():
    # with two streams for three components, component 2 used to stay at zero
    zero = ComponentEnsemble.zeros(SPEC, 3)
    for count in (2, 4):
        streams = tuple(NoiseStream(50, j, NoiseKind.DRIVE) for j in range(count))
        with pytest.raises(ValueError, match="streams"):
            step_linear_ensemble(zero, streams, 0, 0.25, truncation=4.0)
        with pytest.raises(ValueError, match="streams"):
            step_renormalized_wave(zero, streams, 0, 0.25, alpha=0.0, truncation=4.0)


def test_renormalized_wave_shares_noise_with_linear_step():
    # from a zero state the linear output IS the kick, so the interacting
    # output must differ from it by the corrector drift stage alone
    from sigma_wave.dynamics import _drift_tables

    streams = tuple(NoiseStream(8, j, NoiseKind.DRIVE) for j in range(2))
    zero = ComponentEnsemble.zeros(SPEC, 2)
    a = step_renormalized_wave(zero, streams, 0, 0.2, alpha=0.0, truncation=4.0)
    b = step_linear_ensemble(zero, streams, 0, 0.2, truncation=4.0)
    f1 = renormalized_drift(b, 0.0, truncation=4.0)
    _, (gx, gv, w1x, w1v) = _drift_tables(SPEC, 0.2, 0.5)
    assert np.max(np.abs(a.pos - (b.pos + w1x[None] * f1))) <= 1e-15
    assert np.max(np.abs(a.vel - (b.vel + w1v[None] * f1))) <= 1e-15


def test_renormalized_drift_single_component_is_wick_cubic():
    ens = random_ensemble(SPEC, 1, seed=61)
    alpha = 0.8
    ug = np.fft.ifft2(ens.pos[0], norm="forward").real
    expected = np.fft.fft2(-hermite(3, ug, alpha), norm="forward")
    got = renormalized_drift(ens, alpha, truncation=None)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def reference_trajectory(pos0, vel0, drift, gamma, t_end):
    """High-accuracy method-of-lines reference for the semidiscrete system."""
    spec_shape = pos0.shape
    lam = SPEC.dispersion

    def pack(p, v):
        return np.concatenate([p.real.ravel(), p.imag.ravel(),
                               v.real.ravel(), v.imag.ravel()])

    def unpack(y):
        n = pos0.size
        pr, pi, vr, vi = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        return ((pr + 1j * pi).reshape(spec_shape), (vr + 1j * vi).reshape(spec_shape))

    def rhs(_, y):
        p, v = unpack(y)
        f = drift(p)
        dv = -2.0 * gamma * v - lam[None] * p + f
        return pack(v, dv)

    sol = solve_ivp(rhs, (0.0, t_end), pack(pos0, vel0), method="DOP853",
                    rtol=1e-11, atol=1e-12)
    return unpack(sol.y[:, -1])


def fitted_order(errors, dts):
    return np.polyfit(np.log(dts), np.log(errors), 1)[0]


def test_step_hlsm_second_order_in_dt():
    n, t_end = 2, 0.75
    v0 = random_ensemble(SPEC, n, seed=71)
    mask = dealias_mask(SPEC)

    def drift(p):
        from sigma_wave.dynamics import _ensemble_drift
        return _ensemble_drift(p, np.zeros_like(p), 0.0, mask)

    ref_pos, _ = reference_trajectory(v0.pos, v0.vel, drift, 0.5, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        renorm = RenormConstants.zero(1.0, dt, k)
        state = HlsmState(v0.copy(), ComponentEnsemble.zeros(SPEC, n),
                          tuple(NoiseStream(0, j, NoiseKind.DRIVE) for j in range(n)),
                          0.0, 0, renorm, True)
        for _ in range(k):
            state = step_hlsm(state, dt)
        errs.append(np.max(np.abs(state.v.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_step_hlsm_second_order_with_time_dependent_wick_constant():
    # sigma_M(t) grows from 0, so each drift stage must read it at its own
    # time; M = -1 empties the noise ball and keeps the run deterministic
    n, t_end = 2, 0.5
    v0 = random_ensemble(SPEC, n, seed=75)
    finals = {}
    for k in (8, 16, 32, 64, 512):
        dt = t_end / k
        renorm = replace(RenormConstants.build(1.0, 4, dt, k), M=-1)
        state = HlsmState(v0.copy(), ComponentEnsemble.zeros(SPEC, n),
                          tuple(NoiseStream(0, j, NoiseKind.DRIVE) for j in range(n)),
                          0.0, 0, renorm, True)
        for _ in range(k):
            state = step_hlsm(state, dt)
        finals[k] = state.v.pos
    ks = (8, 16, 32, 64)
    errs = [np.max(np.abs(finals[k] - finals[512])) for k in ks]
    assert fitted_order(errs, [t_end / k for k in ks]) >= 1.8


def test_step_meanfield_second_order_in_dt():
    n, t_end = 2, 0.75
    v0 = random_ensemble(SPEC, n, seed=72)
    mask = dealias_mask(SPEC)

    def drift(p):
        from sigma_wave.dynamics import _meanfield_drift
        return _meanfield_drift(p, np.zeros_like(p), mask)

    ref_pos, _ = reference_trajectory(v0.pos, v0.vel, drift, 0.5, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        renorm = RenormConstants.zero(1.0, dt, k)
        state = MeanFieldState(v0.copy(), ComponentEnsemble.zeros(SPEC, n),
                               tuple(NoiseStream(0, r, NoiseKind.DRIVE) for r in range(n)),
                               0.0, 0, renorm, True)
        for _ in range(k):
            state = step_meanfield(state, dt)
        errs.append(np.max(np.abs(state.v.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_deterministic_nlw_second_order_in_dt():
    n, t_end = 2, 0.75
    u0 = random_ensemble(SPEC, n, seed=73)
    mask = dealias_mask(SPEC)

    def drift(p):
        from sigma_wave.dynamics import _conservative_drift
        return _conservative_drift(p, mask)

    ref_pos, _ = reference_trajectory(u0.pos, u0.vel, drift, 0.0, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        ens = u0.copy()
        for _ in range(k):
            ens = step_deterministic_nlw(ens, dt)
        errs.append(np.max(np.abs(ens.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_renormalized_wave_second_order_in_dt():
    n, t_end, alpha = 2, 0.75, 0.6
    u0 = random_ensemble(SPEC, n, seed=74)

    def drift(p):
        ens = ComponentEnsemble(SPEC, p, np.zeros_like(p), copy=False)
        return renormalized_drift(ens, alpha, truncation=None)

    ref_pos, _ = reference_trajectory(u0.pos, u0.vel, drift, 0.5, t_end)
    errs, dts = [], []
    for k in (8, 16, 32, 64):
        dt = t_end / k
        ens = u0.copy()
        for step in range(k):
            ens = step_renormalized_wave(ens, (), step, dt, alpha, truncation=None)
        errs.append(np.max(np.abs(ens.pos - ref_pos)))
        dts.append(dt)
    assert fitted_order(errs, dts) == pytest.approx(2.0, abs=0.3)


def test_run_trajectory_records_and_reproduces():
    def observable(state):
        return float(np.sum(np.abs(state.v.pos) ** 2))

    def make():
        return hlsm_state(2, seed=90, dt=0.1, n_steps=8)

    rec1 = run_trajectory(make(), 0.1, 8, stride=2, observables={"v_sq": observable})
    rec2 = run_trajectory(make(), 0.1, 8, stride=2, observables={"v_sq": observable})
    assert len(rec1.times) == 5
    assert np.array_equal(rec1.series["v_sq"], rec2.series["v_sq"])
    zero_len = run_trajectory(make(), 0.1, 0, observables={"v_sq": observable})
    assert len(zero_len.times) == 1
    with pytest.raises(ValueError):
        run_trajectory(make(), 0.1, 7, stride=2)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_trajectory_detects_blowup(tmp_path):
    state = hlsm_state(2, seed=91, dt=0.1, n_steps=30)
    huge = ComponentEnsemble(SPEC, state.v.pos + 1e200, state.v.vel)
    state = HlsmState(huge, state.psi, state.streams, 0.0, 0, state.renorm)
    with pytest.raises(BlowupError):
        run_trajectory(state, 0.1, 4)
    rec = run_trajectory(hlsm_state(2, seed=92, dt=0.1, n_steps=8), 0.1, 4,
                         observables={"one": lambda s: 1.0})
    out = tmp_path / "traj.csv"
    rec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,one"
    assert len(lines) == 6
