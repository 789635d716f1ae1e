import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from sigma_wave.grid import GridSpec, random_field
from sigma_wave.propagator import duhamel_weights, etd2_step, flow_entries

SPEC = GridSpec(32, 1.0)


def solve_mode(lam, x0, v0, t, forcing=None, gamma=0.5):
    # high-accuracy reference for x'' + 2 gamma x' + lam x = forcing(t)
    def rhs(s, y):
        f = forcing(s) if forcing is not None else 0.0
        return [y[1], -2.0 * gamma * y[1] - lam * y[0] + f]

    sol = solve_ivp(rhs, (0.0, t), [x0, v0], method="DOP853", rtol=1e-12, atol=1e-13)
    return sol.y[0, -1], sol.y[1, -1]


def test_mode_frequency_values():
    # omega^2 = m - 1/4 + |n|^2 is the grid's dispersion less gamma^2 = 1/4
    omega_sq = SPEC.dispersion - 0.25
    assert omega_sq[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert omega_sq[1, 0] == pytest.approx(1.75, abs=1e-15)
    assert omega_sq[1, 0] > 0
    with pytest.raises(ValueError):
        GridSpec(32, 0.0)


def test_degenerate_branch_solves_mode_ode():
    # m = 0.1 at n = 0: omega_sq = -0.15, kernel continues to sinh
    omega_sq = GridSpec(32, 0.1).dispersion[0, 0] - 0.25
    assert omega_sq == pytest.approx(-0.15, abs=1e-15)
    assert not omega_sq > 0
    g = np.sqrt(0.15)
    for t in np.linspace(0.05, 2.0, 9):
        x_ref, _ = solve_mode(0.1, 0.0, 1.0, t)
        kernel = np.exp(-0.5 * t) * np.sinh(t * g) / g
        assert abs(kernel - x_ref) <= 1e-8
        s12 = flow_entries(np.array([0.1]), t)[1][0]
        assert abs(s12 - x_ref) <= 1e-8


def test_damped_propagator_zero_time():
    gen = np.random.default_rng(0)
    f = random_field(SPEC, gen)
    assert np.all(flow_entries(SPEC.dispersion, 0.0)[1] * f.coeffs == 0)


def test_damped_propagator_single_mode_vs_ode():
    lam = 1.0 + 5.0  # mode (1, 2)
    for t in (0.3, 1.0, 2.7):
        x_ref, _ = solve_mode(lam, 0.0, 1.0, t)
        c = np.zeros(SPEC.shape(), complex)
        c[1, 2] = 1.0
        got = (flow_entries(SPEC.dispersion, t)[1] * c)[1, 2].real
        assert abs(got - x_ref) <= 1e-8


def test_damped_propagator_decay_ratio():
    # multi-mode field: norm ratio between t = 4 and t = 2 matches the
    # per-mode ODE oracle and sits at the exp(-1) scale
    gen = np.random.default_rng(1)
    f = random_field(SPEC, gen, truncation=4.0)
    n4 = np.sqrt(np.sum(np.abs(flow_entries(SPEC.dispersion, 4.0)[1] * f.coeffs) ** 2))
    n2 = np.sqrt(np.sum(np.abs(flow_entries(SPEC.dispersion, 2.0)[1] * f.coeffs) ** 2))
    lams = np.unique(SPEC.dispersion[np.abs(f.coeffs) > 0])
    ref = {lam: (solve_mode(lam, 0.0, 1.0, 2.0)[0], solve_mode(lam, 0.0, 1.0, 4.0)[0]) for lam in lams}
    r2 = sum(np.sum(np.abs(f.coeffs[SPEC.dispersion == lam]) ** 2) * ref[lam][0] ** 2 for lam in lams)
    r4 = sum(np.sum(np.abs(f.coeffs[SPEC.dispersion == lam]) ** 2) * ref[lam][1] ** 2 for lam in lams)
    assert n4 / n2 == pytest.approx(np.sqrt(r4 / r2), rel=1e-6)
    assert np.exp(-1.0) * 0.4 <= n4 / n2 <= np.exp(-1.0) * 2.5


def test_homogeneous_flow_identity_at_zero():
    gen = np.random.default_rng(2)
    f, g = random_field(SPEC, gen).coeffs, random_field(SPEC, gen).coeffs
    s11, s12, s21, s22 = flow_entries(SPEC.dispersion, 0.0)
    assert np.array_equal(s11 * f + s12 * g, f)
    assert np.array_equal(s21 * f + s22 * g, g)


def test_homogeneous_flow_single_mode_vs_ode():
    lam = 1.0 + 9.0 + 4.0  # mode (3, 2)
    x_ref, v_ref = solve_mode(lam, 0.7, -0.4, 1.0)
    c = np.zeros(SPEC.shape(), complex)
    c[3, 2] = 0.7
    d = np.zeros(SPEC.shape(), complex)
    d[3, 2] = -0.4
    s11, s12, s21, s22 = flow_entries(SPEC.dispersion, 1.0)
    assert abs((s11 * c + s12 * d)[3, 2].real - x_ref) <= 1e-8
    assert abs((s21 * c + s22 * d)[3, 2].real - v_ref) <= 1e-8


def test_homogeneous_flow_semigroup():
    gen = np.random.default_rng(3)
    f, g = random_field(SPEC, gen).coeffs, random_field(SPEC, gen).coeffs
    s11, s12, s21, s22 = flow_entries(SPEC.dispersion, 0.9)
    once = s11 * f + s12 * g, s21 * f + s22 * g
    for t in (0.35, 0.55):
        s11, s12, s21, s22 = flow_entries(SPEC.dispersion, t)
        f, g = s11 * f + s12 * g, s21 * f + s22 * g
    twice = f, g
    scale = np.max(np.abs(once[0])) + np.max(np.abs(once[1]))
    assert np.max(np.abs(once[0] - twice[0])) <= 1e-12 * scale
    assert np.max(np.abs(once[1] - twice[1])) <= 1e-12 * scale


def test_duhamel_zero_forcing():
    # one ETD2 step from zero data is the Duhamel increment of its forcing
    lam = SPEC.dispersion
    z = np.zeros(SPEC.shape(), complex)
    (gx, gv), (w1x, w1v) = duhamel_weights(lam, 0.1)
    pos, vel = etd2_step(z, z, lambda p, stage: z, (flow_entries(lam, 0.1), (gx, gv, w1x, w1v)))
    assert np.all(pos == 0) and np.all(vel == 0)
    with pytest.raises(ValueError):
        duhamel_weights(lam, 0.0)


def test_duhamel_constant_forcing_vs_quadrature():
    # constant F: the rule is exact, so both components must match the
    # adaptive quadrature of the kernel and its derivative
    lam = 1.0 + 2.0
    w = np.sqrt(lam - 0.25)
    amp = 0.8
    for dt in (0.05, 0.4, 1.3):
        ix = quad(lambda s: np.exp(-0.5 * s) * np.sin(s * w) / w, 0, dt, epsabs=1e-13)[0]
        iv = quad(
            lambda s: np.exp(-0.5 * s) * (np.cos(s * w) - np.sin(s * w) / (2 * w)),
            0, dt, epsabs=1e-13,
        )[0]
        c = np.zeros(SPEC.shape(), complex)
        c[1, 1] = amp
        (gx, gv), (w1x, w1v) = duhamel_weights(SPEC.dispersion, dt)
        tables = flow_entries(SPEC.dispersion, dt), (gx, gv, w1x, w1v)
        zero = np.zeros_like(c)
        pos, vel = etd2_step(zero, zero, lambda p, stage: c, tables)
        assert abs(pos[1, 1].real - amp * ix) <= 1e-10
        assert abs(vel[1, 1].real - amp * iv) <= 1e-10


def test_duhamel_weights_degenerate_branch():
    # weights stay finite and correct through omega_sq <= 0 (quadrature oracle)
    for m in (0.1, 0.25):
        (gx, gv), (w1x, w1v) = duhamel_weights(np.array([m]), 0.7)
        w = m - 0.25

        def kern(s):
            if w < -1e-13:
                g = np.sqrt(-w)
                return np.exp(-0.5 * s) * np.sinh(s * g) / g
            return np.exp(-0.5 * s) * s

        ref_g = quad(lambda s: kern(s), 0, 0.7, epsabs=1e-13)[0]
        ref_w1 = quad(lambda s: (1.0 - s / 0.7) * kern(s), 0, 0.7, epsabs=1e-13)[0]
        assert abs(gx[0] - ref_g) <= 1e-12
        assert abs(w1x[0] - ref_w1) <= 1e-12
        assert np.isfinite(gv[0]) and np.isfinite(w1v[0])


def test_etd2_manufactured_order_two():
    # forced single-field problem with known solution pos*(t) = phi(t) g;
    # the measured convergence order of the endpoint error must be 2
    gen = np.random.default_rng(4)
    g = random_field(SPEC, gen, decay=3.0, truncation=6.0).coeffs
    lam = SPEC.dispersion

    def phi(t):
        return np.sin(1.3 * t) + 0.5 * np.cos(2.7 * t)

    def dphi(t):
        return 1.3 * np.cos(1.3 * t) - 1.35 * np.sin(2.7 * t)

    def ddphi(t):
        return -1.69 * np.sin(1.3 * t) - 3.645 * np.cos(2.7 * t)

    def forcing(t, pos):
        exact = (ddphi(t) + dphi(t)) * g + lam * (phi(t) * g)
        return exact + (pos - phi(t) * g)  # state feedback, zero on the solution

    T = 1.0
    errs = []
    dts = [1 / 20, 1 / 40, 1 / 80, 1 / 160]
    for dt in dts:
        (gx, gv), (w1x, w1v) = duhamel_weights(lam, dt)
        tables = flow_entries(lam, dt), (gx, gv, w1x, w1v)
        pos = phi(0.0) * g
        vel = dphi(0.0) * g
        t = 0.0
        for _ in range(round(T / dt)):
            pos, vel = etd2_step(pos, vel, lambda p, stage: forcing(t + stage * dt, p), tables)
            t += dt
        errs.append(np.sqrt(np.sum(np.abs(pos - phi(T) * g) ** 2)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_quadratic_form_conservation_and_decay():
    lam = np.array([3.0, 17.0])
    x0, v0 = np.array([0.8, -0.3]), np.array([0.2, 1.1])
    # undamped flow (gamma = 0, as step_deterministic_nlw runs): lam x^2 + v^2
    # is exactly conserved
    q0 = lam * x0 * x0 + v0 * v0
    x, v = x0.copy(), v0.copy()
    for _ in range(50):
        s11, s12, s21, s22 = flow_entries(lam, 0.13, gamma=0.0)
        x, v = s11 * x + s12 * v, s21 * x + s22 * v
    assert np.max(np.abs(lam * x * x + v * v - q0)) <= 1e-10 * np.max(q0)
    # with damping: lam x^2 + 2 gamma x v + v^2 decays strictly on mode-pure states
    x, v = x0.copy(), v0.copy()
    prev = lam * x0 * x0 + x0 * v0 + v0 * v0
    for _ in range(50):
        s11, s12, s21, s22 = flow_entries(lam, 0.13, gamma=0.5)
        x, v = s11 * x + s12 * v, s21 * x + s22 * v
        cur = lam * x * x + x * v + v * v
        assert np.all(cur < prev)
        prev = cur


def test_branch_continuity_near_zero_frequency():
    for t in (0.3, 1.0, 2.0):
        limit = t * np.exp(-0.5 * t)
        for w in (1e-12, -1e-12):
            lam = np.array([0.25 + w])
            s12 = flow_entries(lam, t)[1][0]
            assert abs(s12 - limit) <= 1e-8
