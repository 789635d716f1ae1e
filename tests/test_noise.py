import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sigma_wave.dynamics import step_linear_ensemble
from sigma_wave.grid import BallEnsemble, GridSpec, _ball_index, ball_mask
from sigma_wave.noise import (
    NoiseKind,
    NoiseStream,
    RenormConstants,
    _StepRows,
    _ball_tables,
    _draw_kick,
    _half_lattice,
    _sample_ball,
    _transition_tables,
    alpha_m,
    sigma_m,
    stationary_ensemble,
    transition_covariance,
)
from sigma_wave.propagator import flow_entries

from oracles import (draw_kick_full_grid, flat_half_lattice, fresh_generator,
                     sample_profile_full_grid, transition_covariance_mp)

SPEC = GridSpec(32, 1.0)


def kernel(lam):
    """Impulse response of the damped mode, valid for every branch."""
    om = np.sqrt(complex(lam - 0.25))

    def d(s):
        if abs(om) < 1e-8:
            return np.exp(-0.5 * s) * s
        return (np.exp(-0.5 * s) * np.sin(om * s) / om).real

    def ddot(s):
        if abs(om) < 1e-8:
            return np.exp(-0.5 * s) * (1.0 - 0.5 * s)
        return (np.exp(-0.5 * s) * (np.cos(om * s) - 0.5 * np.sin(om * s) / om)).real

    return d, ddot


def covariance_by_quadrature(lam, dt):
    d, ddot = kernel(lam)
    qxx = 2.0 * quad(lambda s: d(s) ** 2, 0, dt, epsabs=1e-13)[0]
    qxv = 2.0 * quad(lambda s: d(s) * ddot(s), 0, dt, epsabs=1e-13)[0]
    qvv = 2.0 * quad(lambda s: ddot(s) ** 2, 0, dt, epsabs=1e-13)[0]
    return qxx, qxv, qvv


def test_alpha_small_truncations_exact():
    assert alpha_m(1.0, 0) == 1.0
    assert alpha_m(1.0, 1) == pytest.approx(3.0, rel=1e-15)


def test_alpha_matches_double_loop():
    m, M = 0.7, 16
    total = 0.0
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            if n1 * n1 + n2 * n2 <= M * M:
                total += 1.0 / (m + n1 * n1 + n2 * n2)
    assert alpha_m(m, M) == pytest.approx(total, rel=1e-13)


def test_alpha_monotone_in_truncation():
    vals = [alpha_m(1.0, M) for M in range(0, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sigma_vanishes_at_time_zero():
    for m in (1.0, 0.25, 0.1):
        assert sigma_m(0.0, m, 4) == 0.0


def test_sigma_single_mode_matches_quadrature():
    om = np.sqrt(0.75)
    for t in (1.0, 2.3):
        ref = quad(lambda s: 2.0 * np.exp(-(t - s)) * np.sin((t - s) * om) ** 2 / om**2,
                   0.0, t, epsabs=1e-13)[0]
        assert sigma_m(t, 1.0, 0) == pytest.approx(ref, abs=1e-10)


def test_sigma_degenerate_masses_match_quadrature():
    # m = 1/4 hits the repeated root exactly; m = 0.1 takes the sinh branch
    for m in (0.25, 0.1):
        d, _ = kernel(m)
        for t in (0.5, 1.7):
            ref = 2.0 * quad(lambda s: d(s) ** 2, 0, t, epsabs=1e-13)[0]
            assert sigma_m(t, m, 0) == pytest.approx(ref, abs=1e-10)


def test_sigma_longtime_limit_is_alpha():
    assert sigma_m(30.0, 1.0, 4) == pytest.approx(alpha_m(1.0, 4), rel=1e-6)


def test_transition_covariance_matches_quadrature():
    for lam in (0.2, 0.25, 1.0, 2.0, 17.0):
        for dt in (0.1, 0.7):
            got = transition_covariance(lam, dt)
            ref = covariance_by_quadrature(lam, dt)
            assert got == pytest.approx(ref, abs=1e-10)


def test_transition_covariance_small_time_expansion():
    dt = 1e-4
    qxx, qxv, qvv = transition_covariance(np.array([1.0, 5.0]), dt)
    assert qvv == pytest.approx(2.0 * dt, rel=1e-3)
    assert np.all(np.abs(qxv) <= 2.0 * dt**2)
    assert np.all(np.abs(qxx) <= dt**2)


def test_transition_covariance_longtime_is_stationary():
    lam = np.array([0.3, 1.0, 5.0, 26.0])
    qxx, qxv, qvv = transition_covariance(lam, 60.0)
    assert qxx == pytest.approx(1.0 / lam, abs=1e-12)
    assert qxv == pytest.approx(0.0, abs=1e-12)
    assert qvv == pytest.approx(1.0, abs=1e-12)


# lam from the smallest mass in use to the corner of an n = 64 grid, with the
# repeated root lam = 1/4, modes 9e-14 either side of it (inside the flow's
# Taylor window) and 1e-11 above it; dt from far below any step to far past
# the damping time, plus each side of the series switch
ORACLE_LAMS = sorted({*np.geomspace(0.05, 4097.0, 16), 0.25, 0.25 - 9e-14, 0.25 + 9e-14,
                      0.25 + 1e-11, 1.0})
ORACLE_DTS = np.geomspace(1e-6, 60.0, 16)


def test_transition_covariance_matches_the_mpmath_oracle():
    worst = np.zeros(3)
    for lam in ORACLE_LAMS:
        edge = 1.0 / max(1.0, np.sqrt(lam))
        for dt in (*ORACLE_DTS, edge, edge * (1.0 + 1e-9), 2.0 * edge):
            got = transition_covariance(lam, dt)
            ref = [float(q) for q in transition_covariance_mp(lam, dt)]
            # Qxx and Qvv relative to themselves, Qxv to the largest entry
            scale = (ref[0], max(ref), ref[2])
            worst = np.maximum(worst, np.abs(np.subtract(got, ref)) / scale)
    assert np.all(worst <= [1e-14, 1e-15, 1e-14]), worst


@pytest.mark.parametrize("m", [1.0, 0.25])
@pytest.mark.parametrize("dt", [1e-3, 1e-5])
def test_eight_small_steps_compose_to_one_exactly(m, dt):
    lam = GridSpec(16, m).dispersion.reshape(-1)[_ball_index(16, 4.0)]
    step = transition_covariance(lam, dt)
    s11, s12, s21, s22 = flow_entries(lam, dt)
    qxx, qxv, qvv = step
    for _ in range(7):  # Q <- F Q F^T + Q(dt)
        qxx, qxv, qvv = (
            s11 * s11 * qxx + 2.0 * s11 * s12 * qxv + s12 * s12 * qvv + step[0],
            s11 * s21 * qxx + (s11 * s22 + s12 * s21) * qxv + s12 * s22 * qvv + step[1],
            s21 * s21 * qxx + 2.0 * s21 * s22 * qxv + s22 * s22 * qvv + step[2])
    assert qxx == pytest.approx(transition_covariance(lam, 8 * dt)[0], rel=1e-13, abs=0)


@pytest.mark.parametrize("m", [1.0, 0.25])
def test_every_mode_keeps_its_position_kick_at_a_tiny_step(m):
    l11 = _transition_tables(GridSpec(32, m), 1e-6)[1][0]
    assert np.all(l11 > 0)


MALFORMED = {
    "lam-zero": (transition_covariance, (0.0, 0.1)),
    "lam-negative": (transition_covariance, (np.array([1.0, -1.0]), 0.1)),
    "lam-nan": (transition_covariance, (np.nan, 0.1)),
    "lam-inf": (transition_covariance, (np.inf, 0.1)),
    "dt-nan": (transition_covariance, (1.0, np.nan)),
    "dt-inf": (transition_covariance, (1.0, np.inf)),
    "alpha-M-fraction": (alpha_m, (1.0, 2.7)),
    "alpha-M-negative": (alpha_m, (1.0, -1)),
    "sigma-M-fraction": (sigma_m, (0.5, 1.0, 2.7)),
    "sigma-t-nan": (sigma_m, (np.nan, 1.0, 2)),
    "sigma-t-inf": (sigma_m, (np.inf, 1.0, 2)),
    "build-dt-nan": (RenormConstants.build, (1.0, 2, np.nan, 4)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_the_covariance_layer_rejects_malformed_input(case):
    fn, args = MALFORMED[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            fn(*args)


def test_the_one_call_schedule_is_the_per_time_sigma():
    # the schedule sums every node in one transition_covariance call
    rc = RenormConstants.build(0.25, 4, 0.05, 40)
    assert rc.sigma == pytest.approx([sigma_m(t, 0.25, 4) for t in rc.times], rel=1e-15, abs=0)


def test_a_whole_number_truncation_may_be_a_float():
    assert alpha_m(1.0, 4.0) == alpha_m(1.0, 4)
    assert sigma_m(0.5, 1.0, 4.0) == sigma_m(0.5, 1.0, 4)


def compose(lam, dt):
    """Covariance of two half steps pushed through the flow, as a 2x2 matrix."""
    qxx, qxv, qvv = transition_covariance(lam, dt / 2)
    q = np.array([[qxx, qxv], [qxv, qvv]])
    s11, s12, s21, s22 = flow_entries(np.array([lam]), dt / 2)
    f = np.array([[s11[0], s12[0]], [s21[0], s22[0]]])
    return f @ q @ f.T + q


@given(
    lam=st.floats(min_value=0.26, max_value=60.0),
    dt=st.floats(min_value=0.01, max_value=3.0),
)
@settings(deadline=None, max_examples=60)
def test_half_steps_compose_to_full_covariance(lam, dt):
    qxx, qxv, qvv = transition_covariance(lam, dt)
    full = np.array([[qxx, qxv], [qxv, qvv]])
    assert np.max(np.abs(compose(lam, dt) - full)) <= 1e-12


def test_half_step_composition_on_degenerate_branch():
    for lam in (0.2, 0.25):
        qxx, qxv, qvv = transition_covariance(lam, 0.8)
        full = np.array([[qxx, qxv], [qxv, qvv]])
        assert np.max(np.abs(compose(lam, 0.8) - full)) <= 1e-10


def test_stationary_pair_preserved_exactly_by_transition():
    lam = SPEC.dispersion.reshape(-1)
    for dt in (0.1, 0.5, 2.0):
        qxx, qxv, qvv = transition_covariance(lam, dt)
        s11, s12, s21, s22 = flow_entries(lam, dt)
        # push C = diag(1/lam, 1) through the flow and add the kick
        cxx = s11 * s11 / lam + s12 * s12 + qxx
        cxv = s11 * s21 / lam + s12 * s22 + qxv
        cvv = s21 * s21 / lam + s22 * s22 + qvv
        assert cxx == pytest.approx(1.0 / lam, abs=1e-12)
        assert cxv == pytest.approx(0.0, abs=1e-12)
        assert cvv == pytest.approx(1.0, abs=1e-12)


def test_stream_draws_are_pure_functions_of_key():
    a = NoiseStream(99, 3, NoiseKind.DRIVE).generator(5).standard_normal(7)
    b = NoiseStream(99, 3, NoiseKind.DRIVE).generator(5).standard_normal(7)
    assert np.array_equal(a, b)
    c = NoiseStream(99, 3, NoiseKind.INITIAL).generator(5).standard_normal(7)
    d = NoiseStream(99, 4, NoiseKind.DRIVE).generator(5).standard_normal(7)
    e = NoiseStream(99, 3, NoiseKind.DRIVE).generator(6).standard_normal(7)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_stream_steps_independent_of_evaluation_order():
    stream = NoiseStream(5, 0, NoiseKind.DRIVE)
    forward = [stream.generator(k).standard_normal(4) for k in range(6)]
    backward = [stream.generator(k).standard_normal(4) for k in reversed(range(6))]
    for k in range(6):
        assert np.array_equal(forward[k], backward[5 - k])


def draw_bytes(gen) -> bytes:
    """Normals of odd and even size, then a uniform and a full-range uint32,
    as bytes: the buffered and half-word paths of the bit generator."""
    parts = (gen.standard_normal(5), gen.standard_normal(6), gen.uniform(),
             gen.integers(2**32, dtype=np.uint32))
    return b"".join(np.asarray(x).tobytes() for x in parts)


@pytest.mark.parametrize("root_seed", [0, 2**63, 2**64 - 1, -5])
def test_rekeyed_generator_draws_the_bits_of_a_fresh_one(root_seed):
    for component, kind, step in itertools.product((0, 255, 2**20), NoiseKind, (0, 1, 2**40)):
        stream = NoiseStream(root_seed, component, kind)
        assert draw_bytes(stream.generator(step)) == draw_bytes(fresh_generator(stream, step))


def test_rekey_after_a_handle_left_mid_block():
    # the earlier handle used part of the Philox buffer and holds half a word
    left = NoiseStream(8, 2, NoiseKind.FIELD).generator(4)
    left.standard_normal(1)
    left.integers(2**32, dtype=np.uint32)
    state = left.bit_generator.state
    assert 0 < state["buffer_pos"] < 4 and state["has_uint32"] == 1
    stream = NoiseStream(8, 3, NoiseKind.DRIVE)
    assert draw_bytes(stream.generator(6)) == draw_bytes(fresh_generator(stream, 6))


def test_threads_in_lockstep_draw_their_own_streams():
    # each thread takes its handle, and both draw only once both hold one
    streams = [NoiseStream(17, j, NoiseKind.DRIVE) for j in (0, 1)]
    barrier = threading.Barrier(2, timeout=30)
    got = [[], []]

    def run(i):
        for step in range(8):
            gen = streams[i].generator(step)
            barrier.wait()
            got[i].append(draw_bytes(gen))
            barrier.wait()

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for stream, rows in zip(streams, got):
        assert rows == [draw_bytes(fresh_generator(stream, step)) for step in range(8)]


@pytest.mark.parametrize("kind", [-1, 256, 257])
def test_a_kind_outside_eight_bits_is_rejected(kind):
    # kind 257 of component 0 would draw the bits of kind 1 of component 1
    with pytest.raises(ValueError, match="noise kind"):
        NoiseStream(3, 0, kind)


@pytest.mark.parametrize("component", [-1, 2**56, 2**64])
def test_a_component_outside_fifty_six_bits_is_rejected(component):
    with pytest.raises(ValueError, match="noise component"):
        NoiseStream(3, component, NoiseKind.DRIVE)
    NoiseStream(3, 2**56 - 1, 255).generator(0)


def test_a_negative_step_is_rejected():
    with pytest.raises(ValueError, match="noise step"):
        NoiseStream(3, 0, NoiseKind.DRIVE).generator(-1)


def convolution(streams, radius, dt, n_steps, start=None):
    """The stochastic convolutions driven by ``streams`` after ``n_steps``
    exact transitions of ``dt``, from rest unless a ``start`` is given."""
    ens = BallEnsemble.zeros(SPEC, radius, len(streams)) if start is None else start
    for step in range(n_steps):
        ens = step_linear_ensemble(ens, streams, step, dt)
    return ens


def test_convolution_path_regenerates_bit_identically():
    def run():
        return convolution([NoiseStream(17, 2, NoiseKind.DRIVE)], 8.0, 0.25, 3)

    a, b = run(), run()
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.vel, b.vel)


def test_convolution_keeps_modes_outside_truncation_zero():
    ens = convolution([NoiseStream(1, 0, NoiseKind.DRIVE)], 4.0, 0.3, 4)
    pos, vel = (a[0] for a in ens.full())
    n = (np.fft.fftfreq(32) * 32).astype(int)
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    outside = n1 * n1 + n2 * n2 > 16
    assert np.all(pos[outside] == 0)
    assert np.all(vel[outside] == 0)
    defect = np.max(np.abs(pos - np.conj(np.flip(np.roll(np.roll(pos, -1, 0), -1, 1), (0, 1)))))
    assert defect == 0.0


def test_convolution_variance_and_wick_mean():
    # one exact transition from rest reproduces sigma_m in law; subtracting it
    # centers the Wick square
    draws = 10_000
    t, M = 1.0, 8
    streams = [NoiseStream(123, k, NoiseKind.DRIVE) for k in range(draws)]
    vals = np.sum(convolution(streams, M, t, 1).pos, axis=1).real  # field values at x = 0
    sig = sigma_m(t, 1.0, M)
    assert np.mean(vals) == pytest.approx(0.0, abs=4.0 * np.sqrt(sig / draws))
    assert np.var(vals) == pytest.approx(sig, rel=4.0 * np.sqrt(2.0 / draws))
    wick = vals**2 - sig
    assert np.mean(wick) == pytest.approx(0.0, abs=4.0 * np.std(wick) / np.sqrt(draws))


def test_mu_pair_mode_marginals():
    draws = 4000
    M = 8
    ens = stationary_ensemble(SPEC, M, root_seed=7, n=draws)
    pair, zero = np.searchsorted(ens.index, [1 * 32 + 2, 0])  # modes (1, 2) and (0, 0)
    c_pair = ens.pos[:, pair]
    c_self = ens.pos[:, zero].real
    v_pair = ens.vel[:, pair]
    at_zero = np.sum(ens.pos, axis=1).real
    se = 4.0 / np.sqrt(draws)
    assert np.mean(np.abs(c_pair) ** 2) == pytest.approx(1.0 / 6.0, rel=se * np.sqrt(2))
    assert np.var(c_self) == pytest.approx(1.0, rel=se * np.sqrt(2))
    assert np.mean(np.abs(v_pair) ** 2) == pytest.approx(1.0, rel=se * np.sqrt(2))
    # position and velocity draws are independent
    assert abs(np.mean(c_pair * np.conj(v_pair))) <= se * np.sqrt(1.0 / 6.0)
    alpha = alpha_m(1.0, M)
    assert np.var(at_zero) == pytest.approx(alpha, rel=se * np.sqrt(2))


def test_stationary_ensemble_stacks_the_per_component_draws():
    # oracle: each component's full-grid draws, position then velocity
    ens = stationary_ensemble(SPEC, 4, root_seed=12, n=3, base=5)
    assert len(ens) == 3 and ens.radius == 4.0
    pos, vel = ens.full()
    for j in range(3):
        gen = NoiseStream(12, 5 + j, NoiseKind.INITIAL).generator(0)
        assert np.array_equal(pos[j], sample_profile_full_grid(gen, SPEC, 4, 1.0 / SPEC.dispersion))
        assert np.array_equal(vel[j], sample_profile_full_grid(gen, SPEC, 4, np.ones(SPEC.shape())))


@pytest.mark.parametrize("n_grid", [8, 16, 32])
def test_half_lattice_partitions_the_ball_into_mirror_pairs(n_grid):
    spec = GridSpec(n_grid, 1.0)
    nyq = spec.nyquist
    rows, cols = np.divmod(np.arange(n_grid * n_grid), n_grid)
    mirror = ((-rows) % n_grid) * n_grid + (-cols) % n_grid
    for radius in (-1.0, 0.0, 3.0, 2.0 * nyq / 3.0, float(nyq)):
        # packed positions; their flat indices are the ball's at those positions
        ball = np.flatnonzero(ball_mask(spec, radius))
        self_idx, plus, minus = (ball[pos] for pos in _half_lattice(n_grid, radius))
        assert np.array_equal(np.sort(np.concatenate([self_idx, plus, minus])), ball)
        assert np.array_equal(mirror[self_idx], self_idx)
        assert np.array_equal(mirror[plus], minus)
        assert np.all(plus < minus)
        # the draw order of the full-grid oracles
        for got, want in zip((self_idx, plus, minus), flat_half_lattice(n_grid, radius)):
            assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(n_grid=st.sampled_from([8, 16, 32]),
       radius=st.one_of(st.floats(-1.0, 24.0), st.just(np.inf)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_every_ball_draw_is_hermitian_bit_for_bit(n_grid, radius, seed, n):
    # minus slots are the conjugates of the plus slots, self-conjugate slots
    # are real, for one stream and for a source of rows, profile draws and kicks
    spec = GridSpec(n_grid, 1.0)
    self_pos, plus, minus = _half_lattice(n_grid, radius)
    size = _ball_index(n_grid, radius).size
    assert self_pos.size + 2 * plus.size == size
    var = 1.0 / spec.dispersion.reshape(-1)[_ball_index(n_grid, radius)]
    chol = _ball_tables(spec, 0.05, radius)[1]
    streams = [NoiseStream(seed, j, NoiseKind.FIELD) for j in range(2)]
    draws = [_sample_ball(streams[0].generator(0), spec, radius, var, n),
             _sample_ball(_StepRows(streams, 1), spec, radius, var, n),
             *_draw_kick(streams[0].generator(2), spec, radius, chol),
             *_draw_kick(_StepRows(streams, 3), spec, radius, chol)]
    for draw in draws:
        assert draw.shape[-1] == size and np.all(np.isfinite(draw))
        assert draw[..., minus].tobytes() == np.conj(draw[..., plus]).tobytes()
        assert np.all(draw[..., self_pos].imag == 0)


@pytest.mark.parametrize("n_grid", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["empty", "zero", "two", "below_nyquist"])
def test_packed_kick_is_the_full_grid_kick_on_the_ball(n_grid, kind):
    spec, dt = GridSpec(n_grid, 1.0), 0.05
    radius = {"empty": -1.0, "zero": 0.0, "two": 2.0, "below_nyquist": spec.nyquist - 1.0}[kind]
    idx = _ball_index(n_grid, radius)
    for step in range(3):
        stream = NoiseStream(12, 3, NoiseKind.DRIVE)
        packed = _draw_kick(stream.generator(step), spec, radius, _ball_tables(spec, dt, radius)[1])
        full = draw_kick_full_grid(stream.generator(step), spec, radius,
                                   _transition_tables(spec, dt)[1])
        for got, want in zip(packed, full):
            assert got.shape == idx.shape
            assert np.array_equal(got, want.reshape(-1)[idx])
            assert np.all(np.delete(want.reshape(-1), idx) == 0)


@pytest.mark.parametrize("radius", [-1.0, 0.0, 4.0, 15.0])
def test_batched_kick_stacks_the_one_stream_kicks_bit_for_bit(radius):
    # one _draw_kick call on a source of rows gives each stream's own kick
    chol = _ball_tables(SPEC, 0.05, radius)[1]
    streams = [NoiseStream(12, j, NoiseKind.DRIVE) for j in (0, 3, 1, 7)]
    for step in (0, 5):
        batch = _draw_kick(_StepRows(streams, step), SPEC, radius, chol)
        one = [_draw_kick(s.generator(step), SPEC, radius, chol) for s in streams]
        for got, want in zip(batch, zip(*one)):
            assert got.shape == (len(streams), _ball_index(SPEC.n_grid, radius).size)
            assert got.tobytes() == np.stack(want).tobytes()


def test_stationary_start_keeps_pointwise_variance():
    draws = 2000
    M = 8
    alpha = alpha_m(1.0, M)
    # components 2k ride the clock; components 2k + 1 are their independent peers
    start = stationary_ensemble(SPEC, M, 31, 2 * draws)
    streams = [NoiseStream(31, 2 * k, NoiseKind.DRIVE) for k in range(draws)]
    ens = BallEnsemble(SPEC, M, start.pos[::2], start.vel[::2])
    vals = {0: np.sum(ens.pos, axis=1).real}
    for steps in (2, 4):
        vals[steps] = np.sum(convolution(streams, M, 0.5, steps, ens).pos, axis=1).real
    other = np.sum(start.pos[1::2], axis=1).real
    rel = 4.0 * np.sqrt(2.0 / draws)
    for t_vals in vals.values():
        assert np.var(t_vals) == pytest.approx(alpha, rel=rel)
    # components with different stream indices are independent
    corr = np.corrcoef(vals[0], other)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(draws)


def test_transition_rejects_bad_dt():
    with pytest.raises(ValueError):
        convolution([NoiseStream(0, 0, NoiseKind.DRIVE)], float(SPEC.nyquist), 0.0, 1)
    with pytest.raises(ValueError):
        transition_covariance(np.array([1.0]), -0.1)


def test_renorm_build_checks_the_mass_before_it_sums_sigma():
    # sigma_M at m = 0 divides by zero on the n = 0 mode; the mass is rejected first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mass m must be positive"):
            RenormConstants.build(0.0, 2, 0.1, 4)


def test_renorm_table_roundtrip(tmp_path):
    rc = RenormConstants.build(m=1.0, M=4, dt=0.25, n_steps=8)
    assert rc.sigma[0] == 0.0
    assert rc.alpha == alpha_m(1.0, 4)
    assert rc.sigma_at(4) == pytest.approx(sigma_m(1.0, 1.0, 4), rel=1e-13)
    path = tmp_path / "renorm.csv"
    rc.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sigma_M,alpha_M"
    assert len(lines) == 10
    row = lines[5].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=0)
    assert float(row[1]) == pytest.approx(rc.sigma[4], rel=1e-15)
    assert float(row[2]) == pytest.approx(rc.alpha, rel=1e-15)


def test_renorm_table_bytes_are_pinned(tmp_path):
    # %.17g writes the floats 0.0, 1.0 and 3.0 as "0", "1" and "3"; each sigma
    # cell is within 2.5e-16 relative of the ball sum of transition_covariance_mp
    path = tmp_path / "renorm.csv"
    RenormConstants.build(m=1.0, M=1, dt=0.5, n_steps=2).to_csv(path)
    assert path.read_bytes() == (b"t,sigma_M,alpha_M\n0,0,3\n0.5,0.2672142440759,3\n"
                                 b"1,1.214540681407037,3\n")
