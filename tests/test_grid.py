import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_wave.diagnostics import _sup_proxy
from sigma_wave.grid import (
    BallEnsemble,
    GridSpec,
    SpectralField,
    apply_i_operator,
    ball_mask,
    hermitian_defect,
    hermitian_symmetrize,
    load_field,
    project,
    random_field,
    rms,
    save_field,
    sobolev_norm,
)

from oracles import ball_ensemble

SPEC = GridSpec(32, 1.0)


def single_mode(spec, n, amp=1.0):
    # real field amp*2*cos(n.x) built from the +/-n coefficient pair
    c = np.zeros(spec.shape(), dtype=np.complex128)
    c[n[0] % spec.n_grid, n[1] % spec.n_grid] = amp
    f = SpectralField(spec, c)
    return hermitian_symmetrize(SpectralField(spec, 2.0 * f.coeffs))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(31, 1.0)
    with pytest.raises(ValueError):
        GridSpec(2, 1.0)
    with pytest.raises(ValueError):
        GridSpec(32, 0.0)
    with pytest.raises(ValueError):
        GridSpec(32, -1.0)


def test_mismatched_specs_rejected():
    g = SpectralField.zeros(GridSpec(16, 1.0))
    with pytest.raises(ValueError):
        SpectralField(SPEC, g.coeffs)
    with pytest.raises(ValueError):
        SpectralField.from_grid(SPEC, g.to_grid())
    packed = BallEnsemble.zeros(SPEC, 4.0, 2)
    with pytest.raises(ValueError):
        BallEnsemble(SPEC, 4.0, packed.pos, packed.vel[:1])


def test_fft_round_trip():
    gen = np.random.default_rng(7)
    vals = gen.standard_normal(SPEC.shape())
    back = SpectralField.from_grid(SPEC, vals).to_grid()
    assert np.max(np.abs(vals - back)) <= 1e-12 * np.max(np.abs(vals))


def test_parseval_normalized_measure():
    gen = np.random.default_rng(8)
    vals = gen.standard_normal(SPEC.shape())
    f = SpectralField.from_grid(SPEC, vals)
    # normalized Lebesgue measure: integral |f|^2 dx == mean of squares
    assert np.sum(np.abs(f.coeffs) ** 2) == pytest.approx(np.mean(vals**2), rel=1e-12)


def test_project_full_ball_is_identity():
    gen = np.random.default_rng(9)
    f = SpectralField.from_grid(SPEC, gen.standard_normal(SPEC.shape()))
    g = project(f, SPEC.nyquist * np.sqrt(2.0))
    assert np.array_equal(f.coeffs, g.coeffs)


def test_project_zero_keeps_mean_only():
    gen = np.random.default_rng(10)
    vals = gen.standard_normal(SPEC.shape())
    f = SpectralField.from_grid(SPEC, vals)
    g = project(f, 0)
    assert g.coeffs[0, 0] == pytest.approx(np.mean(vals), rel=1e-12)
    assert np.count_nonzero(g.coeffs) == 1


def test_project_excludes_single_high_mode():
    f = single_mode(SPEC, (5, 0))
    assert np.all(project(f, 4).coeffs == 0)
    # and a ball that reaches it keeps it
    assert np.array_equal(project(f, 5).coeffs, f.coeffs)


def test_i_multiplier_branches():
    # a unit single-mode field reads the multiplier off its mode n
    assert apply_i_operator(single_mode(SPEC, (2, 0)), 0.5, 4).coeffs[2, 0] == 1.0
    assert apply_i_operator(single_mode(SPEC, (0, 8)), 0.5, 4).coeffs[0, 8] == pytest.approx(
        (4 / 8) ** 0.5, abs=1e-12)
    assert apply_i_operator(single_mode(SPEC, (10, 0)), 0.9, 1).coeffs[10, 0] == pytest.approx(
        10 ** (-0.1), abs=1e-8)
    # boundary mode |n| = M belongs to the flat branch
    assert apply_i_operator(single_mode(SPEC, (3, 4)), 0.7, 5).coeffs[3, 4] == 1.0


def test_i_multiplier_monotone_radial():
    spec = GridSpec(64, 1.0)  # holds |n| = 21 below nyquist
    radii = [1, 2, 3, 5, 8, 13, 21]
    vals = [apply_i_operator(single_mode(spec, (r, 0)), 0.6, 4).coeffs[r, 0].real for r in radii]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # radial symmetry: same |n|, different direction
    assert apply_i_operator(single_mode(SPEC, (3, 4)), 0.6, 2).coeffs[3, 4] == pytest.approx(
        apply_i_operator(single_mode(SPEC, (5, 0)), 0.6, 2).coeffs[5, 0], rel=1e-12)


def test_apply_i_operator_low_modes_unchanged():
    f = single_mode(SPEC, (2, 1))
    g = apply_i_operator(f, 0.8, 4)
    assert np.allclose(g.coeffs, f.coeffs, rtol=0, atol=0)
    assert np.all(apply_i_operator(SpectralField.zeros(SPEC), 0.8, 4).coeffs == 0)


def test_i_operator_sandwich_constant():
    # ||f||_{H^s} <= C ||If||_{H^1} <= C^2 M^{1-s} ||f||_{H^s}, one C across
    # the whole sweep
    gen = np.random.default_rng(12)
    worst = 0.0
    for s in (0.6, 0.8):
        for M in (2, 4, 8, 16):
            for _ in range(100):
                f = random_field(SPEC, gen, decay=1.5)
                hs = sobolev_norm(f, s)
                ih1 = sobolev_norm(apply_i_operator(f, s, M), 1.0)
                assert hs > 0 and ih1 > 0
                worst = max(worst, hs / ih1, ih1 / (M ** (1.0 - s) * hs))
    assert worst <= 4.0


def test_sobolev_norm_single_mode_vs_quadrature():
    # sqrt(2)*cos(x1) has unit L2 norm; its H^1 norm is sqrt(<(1,0)>^2) = sqrt(2)
    f = single_mode(SPEC, (1, 0), amp=1.0 / np.sqrt(2.0))
    grid_l2 = np.sqrt(np.mean(f.to_grid() ** 2))
    assert grid_l2 == pytest.approx(1.0, rel=1e-12)
    assert sobolev_norm(f, 0.0) == pytest.approx(grid_l2, rel=1e-12)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert sobolev_norm(SpectralField.zeros(SPEC), 0.7) == 0.0


def test_sobolev_norm_s0_is_grid_rms():
    gen = np.random.default_rng(13)
    vals = gen.standard_normal(SPEC.shape())
    f = SpectralField.from_grid(SPEC, vals)
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(np.mean(vals**2)), rel=1e-12)


# the W^{s,inf} proxy that the estimators and zn_norm read: the collocation
# max of <grad>^s applied to grid values
def test_sup_sobolev_norm_basics():
    c = 2.5
    const = np.full(SPEC.shape(), c)
    assert _sup_proxy(const, SPEC, -0.3) == pytest.approx(c, rel=1e-12)
    assert _sup_proxy(const, SPEC, 1.7) == pytest.approx(c, rel=1e-12)
    assert _sup_proxy(np.zeros(SPEC.shape()), SPEC, 0.5) == 0.0


def test_sup_sobolev_norm_dominates_l2():
    gen = np.random.default_rng(14)
    for s in (-0.1, 0.0, 0.5):
        f = random_field(SPEC, gen)
        assert _sup_proxy(f.to_grid(), SPEC, s) >= sobolev_norm(f, s) - 1e-13


def test_rms_values():
    assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-12)
    assert rms([7.0] * 11) == pytest.approx(7.0, rel=1e-12)
    assert rms(np.full((3, 3), 2.0)) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        rms([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
def test_rms_jensen(values):
    assert np.mean(values) <= rms(values) + 1e-9 * (1.0 + np.max(values))


def test_operations_preserve_hermitian_symmetry():
    gen = np.random.default_rng(15)
    for _ in range(20):
        f = random_field(SPEC, gen, decay=1.0)
        g = random_field(SPEC, gen, decay=1.0)
        assert hermitian_defect(f) <= 1e-14
        for h in (project(f, 5), apply_i_operator(f, 0.7, 4),
                  SpectralField.from_grid(SPEC, f.to_grid() * g.to_grid())):
            assert hermitian_defect(h) <= 1e-13


def test_random_field_nyquist_lines_clear():
    gen = np.random.default_rng(16)
    f = random_field(SPEC, gen)
    ny = SPEC.nyquist
    # ball truncation at nyquist leaves the unpaired Nyquist lines empty
    # except the paired/self-conjugate axis points, which must be real
    assert np.max(np.abs(f.coeffs[ny, 1:])) == 0.0
    assert np.max(np.abs(f.coeffs[1:, ny])) == 0.0
    assert abs(f.coeffs[ny, 0].imag) <= 1e-15
    assert abs(f.coeffs[0, ny].imag) <= 1e-15


def test_dealias_mask_radius():
    mask = ball_mask(SPEC, SPEC.dealias_radius)
    r2 = SPEC.mode_norm_sq
    assert np.all(r2[mask] <= (2 * SPEC.nyquist / 3.0) ** 2 + 1e-6)
    assert not np.any(mask & (r2 > (2 * SPEC.nyquist / 3.0) ** 2 + 1e-6))
    assert np.array_equal(ball_mask(SPEC, 4), SPEC.mode_norm_sq <= 16 + 1e-9)


def test_ball_ensemble_scatters_each_component_to_its_grid():
    gen = np.random.default_rng(17)
    fields = [(random_field(SPEC, gen), random_field(SPEC, gen)) for _ in range(3)]
    ens = ball_ensemble(SPEC, np.stack([f.coeffs for f, _ in fields]),
                        np.stack([g.coeffs for _, g in fields]))
    assert len(ens) == 3 and ens.pos.shape == (3, SPEC.n_grid ** 2)
    pos, vel = ens.full()
    for j, (f, g) in enumerate(fields):
        assert np.array_equal(pos[j], f.coeffs)
        assert np.array_equal(vel[j], g.coeffs)


def test_ball_ensemble_round_trips_and_rejects_data_off_the_ball():
    spec, radius = GridSpec(16, 1.0), 3.0
    gen = np.random.default_rng(4)
    pos = np.stack([random_field(spec, gen, truncation=radius).coeffs for _ in range(3)])
    vel = np.stack([random_field(spec, gen, truncation=2.0).coeffs for _ in range(3)])
    packed = ball_ensemble(spec, pos, vel, radius)
    assert len(packed) == 3 and packed.pos.shape == (3, int(np.sum(ball_mask(spec, radius))))
    assert np.array_equal(packed.index, np.flatnonzero(ball_mask(spec, radius)))
    back = packed.full()
    assert np.array_equal(back[0], pos) and np.array_equal(back[1], vel)
    again = ball_ensemble(spec, *back, radius)
    assert np.array_equal(again.pos, packed.pos) and np.array_equal(again.vel, packed.vel)
    assert np.all(BallEnsemble.zeros(spec, radius, 2).full()[0] == 0)
    # a batch of ensembles keeps its component count and scatters per ensemble
    batch = BallEnsemble(spec, radius, np.stack([packed.pos, packed.vel]),
                         np.stack([packed.vel, packed.pos]))
    assert len(batch) == 3
    assert np.array_equal(batch.full()[0], np.stack(back)) and len(batch.full()[1]) == 2
    # every mode: radius inf packs the flat grid
    assert np.array_equal(ball_ensemble(spec, pos, vel).pos, pos.reshape(3, -1))
    # a stack packed on the 3-ball holds data off the 2-ball
    with pytest.raises(ValueError):
        BallEnsemble(spec, 2.0, packed.pos, packed.vel)


def test_snapshot_round_trip(tmp_path):
    gen = np.random.default_rng(18)
    f = random_field(SPEC, gen)
    path = tmp_path / "field.sgwv"
    save_field(f, path)
    g = load_field(path, SPEC.m)
    assert g.spec == SPEC
    assert np.array_equal(f.coeffs, g.coeffs)
    # header layout: magic + version + n_grid + reserved zeros
    raw = path.read_bytes()
    assert raw[:4] == b"SGWV"
    assert int.from_bytes(raw[4:6], "little") == 1
    assert int.from_bytes(raw[6:8], "little") == SPEC.n_grid
    assert raw[8:16] == b"\x00" * 8
    assert len(raw) == 16 + 16 * SPEC.n_grid**2


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sgwv"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        load_field(path, 1.0)
    path.write_bytes(b"SGWV" + (1).to_bytes(2, "little") + (32).to_bytes(2, "little") + b"\x00" * 8 + b"\x00" * 7)
    with pytest.raises(ValueError):
        load_field(path, 1.0)
