"""Energies, enhanced-data norms, LLN tables, commutator defects, fits."""

import tracemalloc

import numpy as np
import pytest

from sigma_wave.diagnostics import (
    _LLN_KINDS,
    RateFit,
    _sup_proxy,
    commutator_defect,
    difference_norms,
    energy_en,
    energy_meanfield,
    fit_rate,
    lln_estimator,
    zn_norm,
)
from sigma_wave.dynamics import step_deterministic_nlw
from sigma_wave.grid import BallEnsemble, GridSpec, _bracket_pow, random_field, write_csv

from oracles import (WickContext, ball_ensemble, modified_energy, sup_sobolev_norm,
                     unblocked_lln_estimator, wick_pair, wick_triple)
from test_bench_sites import count_traced_ffts, counts_of


def random_ensemble(spec, n, seed, amplitude=0.5, truncation=None, decay=2.0, radius=np.inf):
    gen = np.random.default_rng(seed)
    pos = np.stack([random_field(spec, gen, decay=decay, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    vel = np.stack([random_field(spec, gen, decay=decay, amplitude=amplitude,
                                 truncation=truncation).coeffs for _ in range(n)])
    return ball_ensemble(spec, pos, vel, radius)


def test_energy_zero_and_constant_field():
    spec = GridSpec(16, m=1.4)
    assert energy_en(BallEnsemble.zeros(spec, np.inf, 3), spec.m) == 0.0
    c = 0.83
    pos = np.zeros((1,) + spec.shape(), dtype=np.complex128)
    pos[0, 0, 0] = c
    ens = ball_ensemble(spec, pos)
    want = spec.m * c**2 / 2 + c**4 / 4
    assert abs(energy_en(ens, spec.m) - want) < 1e-14


def test_energy_of_identical_copies_matches_single_component():
    spec = GridSpec(16, m=1.0)
    one = random_ensemble(spec, 1, seed=3)
    four = BallEnsemble(spec, one.radius, np.repeat(one.pos, 4, axis=0),
                        np.repeat(one.vel, 4, axis=0))
    assert abs(energy_en(four, spec.m) - energy_en(one, spec.m)) < 1e-12


def test_meanfield_energy_of_antisymmetric_replicas_by_hand():
    # replicas +-A cos(x1): quadratic part (1+m) A^2/4, quartic 3 A^4/32
    spec = GridSpec(16, m=1.7)
    amp = 1.3
    pos = np.zeros((2,) + spec.shape(), dtype=np.complex128)
    pos[0, 1, 0] = amp / 2
    pos[0, -1, 0] = amp / 2
    pos[1] = -pos[0]
    replicas = ball_ensemble(spec, pos)
    want = (1 + spec.m) * amp**2 / 4 + 3 * amp**4 / 32
    assert abs(energy_meanfield(replicas, spec.m) - want) < 1e-12
    assert abs(energy_meanfield(replicas, spec.m) - energy_en(replicas, spec.m)) == 0.0


def test_energy_drift_small_and_second_order_in_dt():
    spec = GridSpec(16, m=1.0)
    ens0 = random_ensemble(spec, 2, seed=9, amplitude=0.4,
                           truncation=2 * spec.nyquist / 3.0, radius=spec.dealias_radius)
    e0 = energy_en(ens0, spec.m)

    def drift(dt, t_end=0.25):
        ens = ens0
        worst = 0.0
        for _ in range(int(round(t_end / dt))):
            ens = step_deterministic_nlw(ens, dt)
            worst = max(worst, abs(energy_en(ens, spec.m) - e0))
        return worst / abs(e0)

    coarse = drift(2e-3)
    fine = drift(1e-3)
    assert coarse < 1e-4
    assert 2.5 < coarse / fine < 6.0


def test_modified_energy_identity_above_nyquist_threshold():
    spec = GridSpec(16, m=1.0)
    ens = random_ensemble(spec, 2, seed=21)
    big = spec.nyquist * np.sqrt(2.0)
    a = modified_energy(ens, spec.m, 0.7, big)
    b = energy_en(ens, spec.m)
    assert abs(a - b) <= 1e-12 * abs(b)
    assert modified_energy(BallEnsemble.zeros(spec, np.inf, 2), spec.m, 0.7, 4.0) == 0.0


def test_modified_quadratic_energy_monotone_in_threshold():
    spec = GridSpec(32, m=1.0)
    gen = np.random.default_rng(2)
    vel = np.stack([random_field(spec, gen, decay=1.0).coeffs for _ in range(2)])
    ens = ball_ensemble(spec, np.zeros_like(vel), vel)
    vals = [modified_energy(ens, spec.m, 0.8, M) for M in (2.0, 4.0, 8.0)]
    assert vals[0] < vals[1] < vals[2]


def test_zn_norm_zero_and_reference_recomputation():
    spec = GridSpec(32, m=1.0)
    M = 4.0
    zero_nodes = [BallEnsemble.zeros(spec, M, 3) for _ in range(2)]
    assert zn_norm(zero_nodes, 0.1, 0.0) == 0.0

    nodes = [random_ensemble(spec, 3, seed=s, amplitude=0.8, truncation=M, radius=M)
             for s in (1, 2)]
    c = 0.31
    eps = 0.1
    got = zn_norm(nodes, eps, c)

    # independent path: per-entry Wick products and explicit maxima
    ctx = WickContext(c, M)
    n = 3
    best1 = np.zeros(n)
    best2 = np.zeros((n, n))
    best3 = np.zeros((n, n))
    for ens in nodes:
        fields = ens.full()[0]
        for j in range(n):
            best1[j] = max(best1[j], sup_sobolev_norm(fields[j], -eps))
        for k in range(n):
            for j in range(n):
                same = k == j
                p2 = wick_pair(fields[k], fields[j], ctx, same_component=same)
                p3 = wick_triple(fields[k], fields[j], ctx, same_component=same)
                best2[k, j] = max(best2[k, j], sup_sobolev_norm(p2, -eps))
                best3[k, j] = max(best3[k, j], sup_sobolev_norm(p3, -eps))
    want = (np.sqrt(np.mean(best1**2)) + np.sqrt(np.mean(np.diag(best2) ** 2))
            + np.sqrt(np.mean(best2**2)) + np.sqrt(np.mean(best3**2)))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n_grid", [8, 32, 64])
def test_sup_proxy_matches_the_complex_full_grid_formula(n_grid):
    spec = GridSpec(n_grid, 1.0)
    z = np.random.default_rng(n_grid).standard_normal((2, 3) + spec.shape())
    for s in (-0.1, 0.0, 0.7):
        w = _bracket_pow(n_grid, s)
        field = np.fft.ifft2(w * np.fft.fft2(z, norm="forward"), norm="forward").real
        want = np.max(np.abs(field), axis=(-2, -1))
        got = _sup_proxy(z, spec, s)
        assert got.shape == (2, 3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(field))


def test_lln_estimator_rows_and_rough_decay():
    spec = GridSpec(32, m=1.0)
    rows = lln_estimator(spec, ("wick_square_avg",), [2, 8, 32], truncation=4,
                         T=0.4, reps=4, eps=0.1, root_seed=5, dt=0.1)["wick_square_avg"]
    assert [r["N"] for r in rows] == [2, 8, 32]
    assert all(r["se"] > 0 for r in rows)
    fit = fit_rate(rows)
    assert fit.slope < -0.2

    with pytest.raises(ValueError, match="kind"):
        lln_estimator(spec, ("wick_square_avg", "nope"), [2, 4, 8], 4, 0.4, 2, 0.1, 0)
    with pytest.raises(ValueError, match="alias"):
        lln_estimator(spec, ("wick_square_avg",), [2, 4, 8], 8, 0.4, 2, 0.1, 0)
    # task (i, rep) starts at component (i * reps + rep) * N_i: at 32, 8 with two
    # reps the N = 8 tasks would reuse components 16-31 of the first N = 32 task
    with pytest.raises(ValueError, match="non-decreasing"):
        lln_estimator(spec, ("wick_square_avg",), [32, 8], 4, 0.4, 2, 0.1, 0)


def test_lln_triple_kinds_agree_for_single_component():
    # with N = 1 the fixed-component and averaged triple estimators coincide
    spec = GridSpec(32, m=1.0)
    rows = lln_estimator(spec, ("wick_triple_avg", "wick_triple_avg_an"), [1, 2, 4],
                         truncation=3, T=0.3, reps=3, eps=0.1, root_seed=11)
    a, b = rows["wick_triple_avg"], rows["wick_triple_avg_an"]
    assert abs(a[0]["mean_norm"] - b[0]["mean_norm"]) <= 1e-12 * a[0]["mean_norm"]


def test_lln_estimator_kinds_share_one_trajectory():
    # one call for all kinds returns exactly the rows of one call per kind
    spec = GridSpec(32, m=1.0)
    args = ([1, 2, 4], 3, 0.3, 2, 0.1, 17)
    together = lln_estimator(spec, _LLN_KINDS, *args)
    assert list(together) == list(_LLN_KINDS)
    for kind in _LLN_KINDS:
        assert together[kind] == lln_estimator(spec, (kind,), *args)[kind]


def test_blocked_lln_estimator_gives_the_unblocked_bits():
    # 16 components to a block at n_grid 64: N = 5 is one partial block, 16
    # one exact block and 37 two whole blocks and a partial one
    spec = GridSpec(64, m=1.0)
    args = (_LLN_KINDS, [5, 16, 37], 8, 0.2, 2, 0.1, 23)
    assert lln_estimator(spec, *args) == unblocked_lln_estimator(spec, *args)


def test_lln_estimator_memory_grows_by_the_grid_values_alone():
    # bytes, not time: from N 32 to N 128 the traced peak of a one-N call may
    # grow by psi's grid values (96 more (64, 64) float planes) and little
    # else; the products on the whole stack grew it by 5.3 times that
    spec = GridSpec(64, m=1.0)
    lln_estimator(spec, _LLN_KINDS, [2], 8, 0.1, 1, 0.1, 3)  # the cached tables

    def peak(n):
        tracemalloc.start()
        try:
            lln_estimator(spec, _LLN_KINDS, [n], 8, 0.1, 1, 0.1, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(128) - peak(32) < 2.5 * 96 * 64 * 64 * 8


def test_the_an_kind_smooths_one_block_at_a_time(monkeypatch):
    # psi's grid values once per task and node; the per-component triple
    # takes one rfft2/irfft2 pair per block of 16 components, each other kind
    # one pair
    calls = count_traced_ffts(monkeypatch)
    spec, N_list, n_steps = GridSpec(64, 1.0), [16, 40], 1
    nodes = n_steps + 1
    blocks = sum(-(-n // 16) for n in N_list) * nodes
    for kinds, pairs in ((_LLN_KINDS, 2 * len(N_list) * nodes + blocks),
                         (("wick_triple_avg_an",), blocks),
                         (("wick_square_avg", "wick_triple_avg"), 2 * len(N_list) * nodes)):
        assert counts_of(calls, lambda: lln_estimator(
            spec, kinds, N_list, 8, n_steps * 0.1, 1, 0.1, 5)) == {
            "irfft2": pairs, "rfft2": pairs, "ifftn": len(N_list) * nodes,
            "irfftn": len(N_list) * nodes}


def test_commutator_defect_vanishes_inside_the_identity_range():
    # modes of f, g up to M/3 keep every product where I = Id
    spec = GridSpec(64, m=1.0)
    rows = commutator_defect(spec, 0.8, [12], trials=3, root_seed=7, base_ball=4.0)
    assert rows[0]["defect_max"] < 1e-14


def test_commutator_defect_decays_in_threshold():
    spec = GridSpec(128, m=1.0)
    rows = commutator_defect(spec, 0.8, [4, 8, 16], trials=5, root_seed=3,
                             base_ball=20.0)
    assert all(r["defect_max"] > 0 for r in rows)
    fit = fit_rate(rows)
    assert fit.slope < 0
    with pytest.raises(ValueError, match="base ball"):
        commutator_defect(spec, 0.8, [4], 1, 0, base_ball=32.0)


def test_difference_norms_identical_and_shifted():
    spec = GridSpec(16, m=1.0)
    states = [random_ensemble(spec, 4, seed=s) for s in (1, 2, 3)]
    d_j, d_an = difference_norms(states, states, 0.9, j=1)
    assert d_j == 0.0 and d_an == 0.0

    delta = 0.37
    shifted = []
    for ens in states:
        pos = ens.pos.copy()
        pos[2, 0] += delta  # mode (0, 0); radius inf packs the flat grid
        shifted.append(BallEnsemble(spec, ens.radius, pos, ens.vel))
    d_j, d_an = difference_norms(states, shifted, 0.9, j=2)
    assert abs(d_j - delta) < 1e-14
    assert abs(d_an - delta / 2.0) < 1e-14   # l2-average over 4 components


def test_difference_norms_triangle_inequality():
    spec = GridSpec(16, m=1.0)
    a = [random_ensemble(spec, 2, seed=s) for s in (1, 2)]
    b = [random_ensemble(spec, 2, seed=s) for s in (3, 4)]
    c = [random_ensemble(spec, 2, seed=s) for s in (5, 6)]
    dab = difference_norms(a, b, 0.8, 0)[1]
    dbc = difference_norms(b, c, 0.8, 0)[1]
    dac = difference_norms(a, c, 0.8, 0)[1]
    assert dac <= dab + dbc + 1e-12


def test_difference_norms_rejects_mismatched_nodes():
    spec = GridSpec(16, m=1.0)
    a = [random_ensemble(spec, 2, seed=1)]
    b = [random_ensemble(spec, 2, seed=1) for _ in range(2)]
    with pytest.raises(ValueError, match="recording nodes"):
        difference_norms(a, b, 0.8, 0)
    with pytest.raises(ValueError, match="recording nodes"):
        difference_norms([], [], 0.8, 0)


def test_difference_norms_rejects_states_on_different_balls():
    # the packed difference needs one ball; the coupled runs keep both on M
    spec = GridSpec(16, m=1.0)
    wide = random_ensemble(spec, 2, seed=1, truncation=3.0)
    narrow = ball_ensemble(spec, *wide.full(), 3.0)
    other_grid = BallEnsemble.zeros(GridSpec(32, m=1.0), 3.0, 2)
    for a, b in ((wide, narrow), (narrow, other_grid)):
        with pytest.raises(ValueError, match="different balls"):
            difference_norms([a], [b], 0.8, 0)


def test_difference_norms_rejects_non_finite_nodes():
    # max() against NaN would silently keep the running value
    spec = GridSpec(16, m=1.0)
    ens = random_ensemble(spec, 2, seed=1)
    broken = BallEnsemble(spec, ens.radius, ens.pos.copy(), ens.vel)
    broken.pos[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        difference_norms([ens, ens], [ens, broken], 0.8, 0)


def test_fit_rate_exact_constant_and_noisy():
    ns = np.array([4, 8, 16, 32, 64])
    exact = [(n, n**-0.5) for n in ns]
    fit = fit_rate(exact)
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.slope_se < 1e-12

    flat = fit_rate([(n, 2.0) for n in ns])
    assert abs(flat.slope) < 1e-12

    gen = np.random.default_rng(0)
    noisy = [(n, n**-0.5 * (1 + 0.05 * gen.normal())) for n in ns]
    nf = fit_rate(noisy)
    assert abs(nf.slope + 0.5) < 3 * max(nf.slope_se, 1e-3)

    with pytest.raises(ValueError):
        fit_rate(exact[:2])
    with pytest.raises(ValueError):
        fit_rate([(1, 1.0), (2, 0.0), (3, 1.0)])


def test_write_csv_headers_and_precision(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, "N,mean_norm,se",
              [{"N": 8, "mean_norm": 1.0 / 3.0, "se": 0.01}])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "N,mean_norm,se"
    n, mean, se = lines[1].split(",")
    assert n == "8"
    assert float(mean) == 1.0 / 3.0

    write_csv(path, "M,defect_max", [(4, 0.25), (8, 0.125)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "M,defect_max"
    assert len(lines) == 3


def test_rate_fit_is_frozen():
    fit = fit_rate([(2, 1.0), (4, 0.5), (8, 0.25)])
    assert isinstance(fit, RateFit)
    with pytest.raises(AttributeError):
        fit.slope = 0.0
