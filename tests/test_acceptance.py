"""Acceptance suite: one test per criterion, pinned seeds and tolerances.

Each test is a self-contained experiment; ``pytest -v`` gives the per-
criterion pass/fail line.  Statistical tests use fixed seeds calibrated to
pass with margin, and every tolerance (4 SE, slope windows, drift bounds,
runtime budgets) is asserted, not just reported.
"""

import time

import numpy as np

from sigma_wave.cli import coupled_distance
from sigma_wave.cli import main as cli_main
from sigma_wave.diagnostics import (commutator_defect, energy_en,
                                    energy_meanfield, fit_rate, lln_estimator)
from sigma_wave.dynamics import (MeanFieldState, renormalized_drift,
                                 step_deterministic_meanfield, step_deterministic_nlw,
                                 step_linear_ensemble, step_meanfield)
from sigma_wave.gibbs import (GibbsSamplerConfig, gibbs_potential,
                              gibbs_vs_gaussian_covariance, invariance_check,
                              sample_gibbs)
from sigma_wave.grid import BallEnsemble, GridSpec, random_field
from sigma_wave.noise import (NoiseKind, NoiseStream, RenormConstants, alpha_m, sigma_m,
                              stationary_ensemble)


def report(num: int, detail: str) -> None:
    # reached only after every assert in the criterion held
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_01_renormalization_identity():
    # E[Psi(t,x)^2] at a fixed grid point vs the analytic Wick variance;
    # the transition is exact in law, so t = 1 is a single step
    t0 = time.perf_counter()
    spec = GridSpec(32, 1.0)
    n_mc = 10_000
    streams = [NoiseStream(101, k, NoiseKind.DRIVE) for k in range(n_mc)]
    ens = step_linear_ensemble(BallEnsemble.zeros(spec, 8.0, n_mc), streams, 0, 1.0)
    u = np.real(np.sum(ens.pos, axis=1))   # collocation values at x = (0, 0)
    vals = u * u
    target = sigma_m(1.0, 1.0, 8)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_mc))
    elapsed = time.perf_counter() - t0
    assert abs(mean - target) <= 4.0 * se, (mean, target, se)
    assert elapsed <= 120.0, f"{elapsed:.1f}s exceeds the 2 minute budget"

    alpha = alpha_m(1.0, 8)
    rel = abs(sigma_m(30.0, 1.0, 8) - alpha) / alpha
    assert rel <= 1e-6, rel
    report(1, f"dev {(mean - target) / se:+.2f} SE, sigma(30) rel {rel:.1e}, {elapsed:.1f}s")


def test_criterion_02_stationary_convolution_variances():
    # per-mode variances of the equilibrium-start convolution stay at the
    # mu_1 values for every recording time
    spec = GridSpec(32, 1.0)
    n_mc = 10_000
    modes = [(a, b) for a in range(-4, 5) for b in range(-4, 5) if a * a + b * b <= 16]
    flat = np.array([(a % 32) * 32 + (b % 32) for a, b in modes])
    acc = np.zeros((4, len(modes)))
    ens = stationary_ensemble(spec, 8.0, 202, n_mc)
    slots = np.searchsorted(ens.index, flat)
    streams = [NoiseStream(202, k, NoiseKind.DRIVE) for k in range(n_mc)]
    rec = 0
    for stepk in range(5):              # nodes t = 0, 0.5, 1, 2 on a dt = 0.5 clock
        if stepk in (0, 1, 2, 4):
            acc[rec] += np.sum(np.abs(ens.pos[:, slots]) ** 2, axis=0)
            rec += 1
        if stepk < 4:
            ens = step_linear_ensemble(ens, streams, stepk, 0.5)
    est = acc / n_mc
    worst = 0.0
    for i, (a, b) in enumerate(modes):
        p = 1.0 / (1.0 + a * a + b * b)
        self_conjugate = (2 * a) % 32 == 0 and (2 * b) % 32 == 0
        se = p * (np.sqrt(2.0) if self_conjugate else 1.0) / np.sqrt(n_mc)
        worst = max(worst, float(np.max(np.abs(est[:, i] - p)) / se))
    assert worst <= 4.0, worst
    report(2, f"worst dev {worst:.2f} SE over {4 * len(modes)} mode/time checks")


def _h1_ensemble(spec: GridSpec, n: int, seed: int) -> BallEnsemble:
    # radius inf: every mode, no dealiasing
    pos, vel = [], []
    for j in range(n):
        pos.append(random_field(spec, np.random.default_rng(seed + 2 * j),
                                decay=3.0).coeffs.reshape(-1))
        vel.append(random_field(spec, np.random.default_rng(seed + 2 * j + 1),
                                decay=4.0).coeffs.reshape(-1))
    return BallEnsemble(spec, np.inf, np.stack(pos), np.stack(vel))


def test_criterion_03_deterministic_energy_conservation():
    # undamped collocation system is Hamiltonian for the grid-quadrature
    # energy, so the only drift is the integrator's, which must be order 2
    spec = GridSpec(32, 1.0)
    for label, n, stepper, efn in (("E_N", 4, step_deterministic_nlw, energy_en),
                                   ("script_E", 8, step_deterministic_meanfield,
                                    energy_meanfield)):
        drifts = []
        for dt in (1e-3, 5e-4):
            ens = _h1_ensemble(spec, n, 77)
            e0 = efn(ens, 1.0)
            worst = 0.0
            for k in range(int(round(1.0 / dt))):
                ens = stepper(ens, dt)
                if (k + 1) % 100 == 0:
                    worst = max(worst, abs(efn(ens, 1.0) - e0))
            drifts.append(worst / abs(e0))
        ratio = drifts[0] / drifts[1]
        assert drifts[0] <= 1e-4, (label, drifts[0])
        assert 3.0 <= ratio <= 5.0, (label, ratio)
        report(3, f"{label}: rel drift {drifts[0]:.2e}, dt/2 ratio {ratio:.2f}")


def test_criterion_04_zero_residual_is_exact():
    # every drift term carries v or a v-average, so zero residual data is a
    # fixed point of the residual system to the last bit
    spec = GridSpec(32, 1.0)
    dt, n_steps = 0.01, 1000
    rc = RenormConstants.build(1.0, 8, dt, n_steps)
    state = MeanFieldState.stationary(spec, 8, rc, root_seed=33)
    for k in range(n_steps):
        state = step_meanfield(state, dt)
        if (k + 1) % 100 == 0:
            assert np.max(np.abs(state.v.pos)) <= 1e-14
            assert np.max(np.abs(state.v.vel)) <= 1e-14
    assert np.all(state.v.pos == 0.0) and np.all(state.v.vel == 0.0)
    report(4, f"max |v| = {np.max(np.abs(state.v.pos)):.1e} after {n_steps} steps")


def test_criterion_05_gibbs_drift_matches_potential():
    spec = GridSpec(16, 1.0)
    n, M = 3, 2
    alpha = alpha_m(spec.m, M)
    gen = np.random.default_rng(505)
    ball = BallEnsemble.zeros(spec, float(M), n)   # coefficients on |n| <= M, packed
    pos = np.stack([random_field(spec, gen, decay=1.0, amplitude=0.6,
                                 truncation=float(M)).coeffs.reshape(-1)[ball.index]
                    for _ in range(n)])
    ens = BallEnsemble(spec, M, pos, np.zeros_like(pos))
    drift = renormalized_drift(ens, alpha)
    eps, worst = 1e-5, 0.0
    for _ in range(20):
        w = np.stack([random_field(spec, gen, decay=0.5, truncation=float(M)).coeffs
                      .reshape(-1)[ball.index] for _ in range(n)])
        plus = BallEnsemble(spec, M, ens.pos + eps * w, ens.vel)
        minus = BallEnsemble(spec, M, ens.pos - eps * w, ens.vel)
        fd = (gibbs_potential(plus, alpha) - gibbs_potential(minus, alpha)) / (2 * eps)
        exact = -np.sum(drift * np.conj(w)).real
        rel = abs(fd - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
    assert worst <= 1e-6, worst
    report(5, f"worst relative error {worst:.2e} over 20 directions")


def test_criterion_06_free_sampler_calibration():
    # with the interaction off the chain must reproduce the free product
    # measure; SEs are inflated by the measured autocorrelation time
    spec = GridSpec(16, 1.0)
    cfg = GibbsSamplerConfig(2, 3, 1.0, 0.7, 64000, 4000, thin=5, interaction=False)
    samples = sample_gibbs(spec, cfg, root_seed=606)
    corr = max(samples.iact / cfg.thin, 1.0)
    effective = len(samples) / corr
    assert effective >= 10_000, (len(samples), samples.iact)
    worst = 0.0
    for j in range(2):
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a * a + b * b > 9:
                    continue
                row = gibbs_vs_gaussian_covariance(samples, j, (a, b))
                se = row["se"] * np.sqrt(corr)
                dev = abs(row["variance"] - row["gaussian_variance"]) / se
                worst = max(worst, dev)
    assert worst <= 4.0, worst
    report(6, f"worst dev {worst:.2f} SE, {effective:.0f} effective samples, "
              f"acceptance {samples.accept_rate:.2f}")


def test_criterion_07_lln_decay_rate():
    t0 = time.perf_counter()
    spec = GridSpec(64, 1.0)
    tables = lln_estimator(spec, ("wick_square_avg", "wick_triple_avg"), [8, 32, 128, 512],
                           8, 1.0, reps=20, eps=0.1, root_seed=40406)
    for kind, rows in tables.items():
        fit = fit_rate(rows)
        assert abs(fit.slope + 0.5) <= 0.15, (kind, fit.slope)
        report(7, f"{kind}: slope {fit.slope:+.3f} +/- {fit.slope_se:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"{elapsed:.0f}s exceeds the 10 minute budget"


def test_criterion_08_gibbs_invariance_under_dynamics():
    # 500 draws, thinned to near-independence, pushed through one unit of
    # the truncated renormalized flow
    spec = GridSpec(32, 1.0)
    cfg = GibbsSamplerConfig(4, 4, 1.0, 0.3, 52000, 2000, thin=100)
    assert cfg.n_samples == 500
    rep = invariance_check(spec, cfg, root_seed=808, horizon=1.0, dt=0.01)
    row = next(r for r in rep.rows if r["observable"] == "wick_square_int")
    assert row["p_value"] >= 0.01, row
    gap = abs(row["mean_t1"] - row["mean_t0"])
    se = float(np.hypot(row["se_t0"], row["se_t1"]))
    assert gap <= 3.0 * se, (gap, se)
    report(8, f"KS p = {row['p_value']:.3f}, mean shift {gap / se:.2f} SE")


def _coupled_distance(spec: GridSpec, n: int, M: int, root: int) -> float:
    cfg = GibbsSamplerConfig(n, M, 1.0, 0.25, 400, 0, thin=1,
                             acceptance_band=(0.0, 1.0))
    return coupled_distance(spec, cfg, root, 0.01, 50, 5, 0.9)


def test_criterion_09_meanfield_convergence_rate():
    # component 1 of the interacting system against the free field driven
    # by the same noise from the coupled Gibbs/Gaussian data pair
    t0 = time.perf_counter()
    spec = GridSpec(32, 1.0)
    M, reps = 7, 10
    rows = []
    for n in (4, 16, 64, 256):
        vals = [_coupled_distance(spec, n, M, 909 + 7919 * rep) for rep in range(reps)]
        rows.append({"N": n, "mean_norm": float(np.mean(vals)),
                     "se": float(np.std(vals, ddof=1) / np.sqrt(reps))})
    fit = fit_rate(rows)
    elapsed = time.perf_counter() - t0
    assert abs(fit.slope + 0.5) <= 0.2, fit.slope
    assert elapsed <= 1800.0, f"{elapsed:.0f}s exceeds the 30 minute budget"
    report(9, f"slope {fit.slope:+.3f} +/- {fit.slope_se:.3f}, {elapsed:.0f}s")


def test_criterion_10_commutator_scaling():
    spec = GridSpec(512, 1.0)
    rows = commutator_defect(spec, 0.8, [4, 8, 16, 32], trials=20,
                             root_seed=1212, base_ball=80.0)
    fit = fit_rate(rows)
    assert fit.slope <= 2.0 - 3.0 * 0.8 + 0.3, fit.slope    # = -0.1
    report(10, f"slope {fit.slope:+.3f} (bound -0.1)")


def test_criterion_11_byte_identical_reruns(tmp_path):
    ini = tmp_path / "accept.ini"
    ini.write_text(
        "[grid]\nn_grid = 16\n[truncation]\nM = 2\n"
        "[dynamics]\nN = 2\ndt = 0.1\nT = 0.4\nstride = 2\n"
        "[gibbs]\nh = 0.3\nchain = 80\nburnin = 20\nthin = 5\n"
        "[experiment]\nN_list = 2,3,4\nreps = 2\nseed = 13\n"
    )
    checked = 0
    for command in ("renorm-table", "lln-decay", "sample-gibbs", "simulate-hlsm"):
        out = tmp_path / command
        argv = [command, "--config", str(ini), "--out", str(out)]
        assert cli_main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert any(name.endswith(".csv") for name in first)
        assert cli_main(argv) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, f"{command}/{name} changed"
        checked += len(first)
    report(11, f"{checked} output files byte-stable across reruns")
