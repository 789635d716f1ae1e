import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_wave.diagnostics import _sup_proxy
from sigma_wave.grid import (
    BallEnsemble,
    GridSpec,
    SpectralField,
    _i_profile,
    _mirror,
    _to_coeffs,
    _to_grid,
    ball_mask,
    hermitian_defect,
    load_field,
    random_field,
    rms,
    save_field,
    sobolev_norm,
    write_csv,
)

from oracles import ball_ensemble

SPEC = GridSpec(32, 1.0)


def single_mode(spec, n, amp=1.0):
    # coefficients of the real field amp*2*cos(n.x): the +/-n pair
    c = np.zeros(spec.shape(), dtype=np.complex128)
    c[n[0] % spec.n_grid, n[1] % spec.n_grid] = 2.0 * amp
    return 0.5 * (c + _mirror(c))


def i_operator(coeffs, s, truncation):
    # the I-method multiplier applied to full coefficients, as the commutator does
    return coeffs * _i_profile(coeffs.shape[-1], float(s), float(truncation))


def to_grid(coeffs):
    return np.fft.ifft2(coeffs, norm="forward").real


def to_coeffs(values):
    return np.fft.fft2(values, norm="forward")


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
    with pytest.raises(ValueError):
        SpectralField(SPEC, np.zeros((16, 16), complex))
    packed = BallEnsemble.zeros(SPEC, 4.0, 2)
    with pytest.raises(ValueError):
        BallEnsemble(SPEC, 4.0, packed.pos, packed.vel[:1])


def test_fft_round_trip():
    # the program's transform pair on every mode (radius inf): grid -> packed -> grid
    gen = np.random.default_rng(7)
    vals = gen.standard_normal(SPEC.shape())
    back = _to_grid(_to_coeffs(vals, np.inf), SPEC.n_grid, np.inf)
    assert np.max(np.abs(vals - back)) <= 1e-12 * np.max(np.abs(vals))


def test_parseval_normalized_measure():
    gen = np.random.default_rng(8)
    vals = gen.standard_normal(SPEC.shape())
    packed = _to_coeffs(vals, np.inf)
    # normalized Lebesgue measure: integral |f|^2 dx == mean of squares
    assert np.sum(np.abs(packed) ** 2) == pytest.approx(np.mean(vals**2), rel=1e-12)


def test_project_full_ball_is_identity():
    # random_field's truncation is a sharp projection: a smaller ball keeps
    # exactly its own modes of the same draw, and the full ball keeps them all
    full = random_field(SPEC, np.random.default_rng(9), truncation=SPEC.nyquist * np.sqrt(2.0))
    assert np.count_nonzero(full.coeffs) == SPEC.n_grid ** 2
    for radius in (3.0, 5.0, SPEC.dealias_radius, SPEC.nyquist):
        cut = random_field(SPEC, np.random.default_rng(9), truncation=radius)
        assert np.array_equal(cut.coeffs, np.where(ball_mask(SPEC, radius), full.coeffs, 0.0))


def test_project_zero_keeps_mean_only():
    full = random_field(SPEC, np.random.default_rng(10), truncation=SPEC.nyquist * np.sqrt(2.0))
    f = random_field(SPEC, np.random.default_rng(10), truncation=0)
    assert f.coeffs[0, 0] == full.coeffs[0, 0] and f.coeffs[0, 0].imag == 0.0
    assert np.count_nonzero(f.coeffs) == 1


def test_project_excludes_single_high_mode():
    f = single_mode(SPEC, (5, 0))
    assert np.all(np.where(ball_mask(SPEC, 4), f, 0.0) == 0)
    # and a ball that reaches it keeps it, the boundary |n| = 5 included
    assert np.array_equal(np.where(ball_mask(SPEC, 5), f, 0.0), f)
    assert ball_mask(SPEC, 5)[3, 4] and ball_mask(SPEC, 5)[-3, -4]


def test_i_multiplier_branches():
    # a unit single-mode field reads the multiplier off its mode n
    assert i_operator(single_mode(SPEC, (2, 0)), 0.5, 4)[2, 0] == 1.0
    assert i_operator(single_mode(SPEC, (0, 8)), 0.5, 4)[0, 8] == pytest.approx(
        (4 / 8) ** 0.5, abs=1e-12)
    assert i_operator(single_mode(SPEC, (10, 0)), 0.9, 1)[10, 0] == pytest.approx(
        10 ** (-0.1), abs=1e-8)
    # boundary mode |n| = M belongs to the flat branch
    assert i_operator(single_mode(SPEC, (3, 4)), 0.7, 5)[3, 4] == 1.0
    for s in (0.0, 1.5):
        with pytest.raises(ValueError, match="s must be in"):
            _i_profile(SPEC.n_grid, s, 4.0)


def test_i_multiplier_monotone_radial():
    spec = GridSpec(64, 1.0)  # holds |n| = 21 below nyquist
    radii = [1, 2, 3, 5, 8, 13, 21]
    vals = [i_operator(single_mode(spec, (r, 0)), 0.6, 4)[r, 0].real for r in radii]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # radial symmetry: same |n|, different direction
    assert i_operator(single_mode(SPEC, (3, 4)), 0.6, 2)[3, 4] == pytest.approx(
        i_operator(single_mode(SPEC, (5, 0)), 0.6, 2)[5, 0], rel=1e-12)


def test_i_multiplier_low_modes_unchanged():
    f = single_mode(SPEC, (2, 1))
    assert np.array_equal(i_operator(f, 0.8, 4), f)
    assert np.all(i_operator(np.zeros(SPEC.shape(), complex), 0.8, 4) == 0)


def test_i_operator_sandwich_constant():
    # ||f||_{H^s} <= C ||If||_{H^1} <= C^2 M^{1-s} ||f||_{H^s}, one C across
    # the whole sweep
    gen = np.random.default_rng(12)
    worst = 0.0
    for s in (0.6, 0.8):
        for M in (2, 4, 8, 16):
            for _ in range(100):
                f = random_field(SPEC, gen, decay=1.5)
                hs = sobolev_norm(f.coeffs, s)
                ih1 = sobolev_norm(i_operator(f.coeffs, s, M), 1.0)
                assert hs > 0 and ih1 > 0
                worst = max(worst, hs / ih1, ih1 / (M ** (1.0 - s) * hs))
    assert worst <= 4.0


def test_sobolev_norm_single_mode_vs_quadrature():
    # sqrt(2)*cos(x1) has unit L2 norm; its H^1 norm is sqrt(<(1,0)>^2) = sqrt(2)
    f = single_mode(SPEC, (1, 0), amp=1.0 / np.sqrt(2.0))
    grid_l2 = np.sqrt(np.mean(to_grid(f) ** 2))
    assert grid_l2 == pytest.approx(1.0, rel=1e-12)
    assert sobolev_norm(f, 0.0) == pytest.approx(grid_l2, rel=1e-12)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert sobolev_norm(np.zeros(SPEC.shape(), complex), 0.7) == 0.0


def test_sobolev_norm_s0_is_grid_rms():
    gen = np.random.default_rng(13)
    vals = gen.standard_normal(SPEC.shape())
    assert sobolev_norm(to_coeffs(vals), 0.0) == pytest.approx(np.sqrt(np.mean(vals**2)),
                                                               rel=1e-12)


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
        f = random_field(SPEC, gen).coeffs
        assert _sup_proxy(to_grid(f), SPEC, s) >= sobolev_norm(f, s) - 1e-13


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
        f = random_field(SPEC, gen, decay=1.0).coeffs
        g = random_field(SPEC, gen, decay=1.0).coeffs
        assert hermitian_defect(f) <= 1e-14
        for h in (np.where(ball_mask(SPEC, 5), f, 0.0), i_operator(f, 0.7, 4),
                  to_coeffs(to_grid(f) * to_grid(g))):
            assert hermitian_defect(h) <= 1e-13
    assert hermitian_defect(single_mode(SPEC, (3, 1)) + 0.5j) == 1.0


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


def test_ball_ensemble_items_are_the_sliced_stacks():
    spec, radius = GridSpec(16, 1.0), 3.0
    gen = np.random.default_rng(5)
    shape = (4, 2, int(np.sum(ball_mask(spec, radius))))
    pos = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    batch = BallEnsemble(spec, radius, pos, 2.0 * pos)
    for key in (0, -1, slice(1, 3), slice(0, 4)):
        item = batch[key]
        assert (item.spec, item.radius) == (spec, radius) and len(item) == 2
        assert item.pos.tobytes() == pos[key].tobytes()
        assert item.vel.tobytes() == (2.0 * pos)[key].tobytes()
    # an index that reaches the component axis leaves no ensemble
    with pytest.raises(ValueError):
        batch[0][0]


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


def test_write_csv_cells_text_integers_and_full_precision_floats(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, "name,k,x", [("psi", np.int64(3), 0.1), {"a": "v", "b": True, "c": 2.0}])
    assert path.read_bytes() == b"name,k,x\npsi,3,0.10000000000000001\nv,1,2\n"
