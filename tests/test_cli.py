"""Contract tests for the command line front end: config resolution,
manifest hashing, determinism, and thread independence."""

import copy
import json
import warnings

import numpy as np
import pytest

from sigma_wave.cli import (DEFAULTS, ConfigError, config_hash, coupled_distance, load_config,
                            main, thread_map)
from sigma_wave.diagnostics import _LLN_KINDS, difference_norms
from sigma_wave.dynamics import step_linear_ensemble, step_renormalized_wave
from sigma_wave.gibbs import (GibbsSamplerConfig, coupled_gibbs_gaussian_pair,
                              gibbs_vs_gaussian_covariance, sample_gibbs)
from sigma_wave.grid import GridSpec, load_field, save_field
from sigma_wave.noise import NoiseKind, NoiseStream, alpha_m


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
[grid]
n_grid = 16
m = 1.0
[truncation]
M = 2
[dynamics]
N = 2
R = 2
dt = 0.05
T = 0.2
stride = 2
[gibbs]
h = 0.3
chain = 40
burnin = 10
thin = 5
[experiment]
N_list = 2,3,4
reps = 2
seed = 7
[output]
dir = {out}
"""


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lln-decay", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for section, keys in DEFAULTS.items():
        assert f"[{section}]" in text
        for key in keys:
            assert key in text
    assert "SIGMA_WAVE_THREADS" in text


def test_top_level_help_names_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("renorm-table", "simulate-hlsm", "simulate-meanfield",
                 "convergence-rate", "lln-decay", "sample-gibbs",
                 "invariance-check", "commutator"):
        assert name in text


def test_unknown_key_is_a_hard_error_naming_the_key(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[grid]\nn_gird = 32\n")
    assert main(["renorm-table", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "n_gird" in err and "[grid]" in err


def test_unknown_section_is_a_hard_error(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[grids]\nn_grid = 32\n")
    assert main(["renorm-table", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "grids" in capsys.readouterr().err


def test_malformed_values_name_the_key(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[dynamics]\ndt = fast\n")
    assert main(["renorm-table", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "[dynamics] dt" in capsys.readouterr().err


def test_empty_n_list_is_rejected(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[experiment]\nN_list =\n")
    assert main(["lln-decay", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "N_list" in capsys.readouterr().err


def test_flipping_any_key_changes_the_manifest_hash():
    base = load_config(None)
    base_hash = config_hash(base)
    seen = {base_hash}
    for section, keys in DEFAULTS.items():
        for key, default in keys.items():
            cfg = copy.deepcopy(base)
            if isinstance(default, bool):
                cfg[section][key] = not default
            elif isinstance(default, (int, float)):
                cfg[section][key] = default + 1
            elif isinstance(default, list):
                cfg[section][key] = list(default) + [99]
            else:
                cfg[section][key] = str(default) + "x"
            h = config_hash(cfg)
            assert h != base_hash, f"[{section}] {key} did not change the hash"
            assert h not in seen
            seen.add(h)


def test_seed_flag_overrides_config_and_hash(tmp_path):
    cfgp = write_ini(tmp_path, SMALL.format(out=tmp_path / "a"))
    assert main(["renorm-table", "--config", cfgp]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["experiment"]["seed"] == 7
    assert main(["renorm-table", "--config", cfgp, "--seed", "8",
                 "--out", str(tmp_path / "b")]) == 0
    other = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert other["config"]["experiment"]["seed"] == 8
    assert other["config_hash"] != manifest["config_hash"]


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, SMALL.format(out=out) + "formats = csv,fields\n")
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    names = sorted(p.name for p in out.iterdir())
    first = {n: (out / n).read_bytes() for n in names}
    assert "trajectory.csv" in first and "manifest.json" in first
    assert any(n.endswith(".sgwv") for n in names)
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], f"{n} changed between reruns"


def test_renorm_table_rerun_and_header(tmp_path):
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, SMALL.format(out=out))
    assert main(["renorm-table", "--config", cfgp]) == 0
    body = (out / "renorm.csv").read_bytes()
    assert body.splitlines()[0] == b"t,sigma_M,alpha_M"
    assert main(["renorm-table", "--config", cfgp]) == 0
    assert (out / "renorm.csv").read_bytes() == body


def test_results_do_not_depend_on_thread_count(tmp_path, monkeypatch):
    texts = []
    for tag, extra in (("t1", ["--threads", "1"]), ("t2", ["--threads", "3"]), ("env", [])):
        out = tmp_path / tag
        cfgp = write_ini(tmp_path, SMALL.format(out=out), name=f"{tag}.ini")
        if not extra:
            monkeypatch.setenv("SIGMA_WAVE_THREADS", "2")
        assert main(["convergence-rate", "--config", cfgp] + extra) == 0
        assert main(["lln-decay", "--config", cfgp] + extra) == 0
        assert main(["invariance-check", "--config", cfgp] + extra) == 0
        texts.append([(out / name).read_bytes() for name in
                      ["convergence.csv", "invariance.csv"]
                      + [f"lln_{kind}.csv" for kind in _LLN_KINDS]])
    assert texts[0] == texts[1] == texts[2]


def test_largest_seed_runs_the_commands_that_derive_seeds(tmp_path):
    # invariance-check keys its dynamics noise by seed + 1 and convergence-rate
    # its reps by seed + 7919 * rep; both wrap mod 2**64 instead of overflowing
    for command in ("invariance-check", "convergence-rate"):
        cfgp = write_ini(tmp_path, SMALL.format(out=tmp_path / command))
        assert main([command, "--config", cfgp, "--seed", str(2**64 - 1)]) == 0


def test_lln_decay_single_rep_writes_zero_se(tmp_path):
    # one rep has no spread: se reads 0, not nan, and numpy warns of nothing
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 32\n[truncation]\nM = 4\n[dynamics]\nT = 0.2\n"
                               f"[experiment]\nN_list = 2,4,8\nreps = 1\n[output]\ndir = {out}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lln-decay", "--config", cfgp]) == 0
    for kind in _LLN_KINDS:
        table = np.loadtxt(out / f"lln_{kind}.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table))
        assert np.all(table[:, 2] == 0.0)


def test_coupled_distance_matches_steps_that_draw_their_own_kicks():
    # reference loop: each stepper draws the shared streams' kicks itself
    spec, M, root, dt, n_steps, stride, s = GridSpec(16, 1.0), 2, 21, 0.05, 6, 2, 0.9
    cfg = GibbsSamplerConfig(3, M, 1.0, 0.3, 30, 0, thin=1, acceptance_band=(0.0, 1.0))
    a, b = coupled_gibbs_gaussian_pair(spec, cfg, root)
    streams = tuple(NoiseStream(root, j, NoiseKind.DRIVE) for j in range(3))
    alpha = alpha_m(spec.m, M)
    states_n, states_l = [a], [b]
    for k in range(n_steps):
        a = step_renormalized_wave(a, streams, k, dt, alpha)
        b = step_linear_ensemble(b, streams, k, dt)
        if (k + 1) % stride == 0:
            states_n.append(a)
            states_l.append(b)
    want = difference_norms(states_n, states_l, s, 0)[0]
    assert coupled_distance(spec, cfg, root, dt, n_steps, stride, s) == want


def test_simulate_from_file_data_roundtrip(tmp_path, capsys):
    src = tmp_path / "src"
    cfgp = write_ini(tmp_path, SMALL.format(out=src) + "formats = csv,fields\n")
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    cfg2 = write_ini(tmp_path,
                     SMALL.format(out=tmp_path / "next").replace(
                         "stride = 2", f"stride = 2\ndata = file\ndata_file = {src}"),
                     name="next.ini")
    assert main(["simulate-hlsm", "--config", cfg2]) == 0
    capsys.readouterr()
    rows = (tmp_path / "next" / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    first = dict(zip(header, map(float, rows[1].split(","))))
    # the loaded field is the previous run's endpoint, so the energy is nonzero at t=0
    assert first["energy_en"] > 0


def test_file_data_that_is_not_a_real_field_is_rejected(tmp_path, capsys):
    src = tmp_path / "src"
    cfgp = write_ini(tmp_path, SMALL.format(out=src) + "formats = csv,fields\n")
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    bad = src / "field_u001.sgwv"
    field = load_field(bad, 1.0)
    field.coeffs[1, 2] += 0.5j * np.max(np.abs(field.coeffs))  # its mirror (-1, -2) stays
    save_field(field, bad)
    cfg2 = write_ini(tmp_path,
                     SMALL.format(out=tmp_path / "next").replace(
                         "stride = 2", f"stride = 2\ndata = file\ndata_file = {src}"),
                     name="next.ini")
    capsys.readouterr()
    assert main(["simulate-hlsm", "--config", cfg2]) == 2
    err = capsys.readouterr().err
    assert "field_u001.sgwv" in err and "real field" in err


def test_file_data_off_the_dealias_ball_is_rejected(tmp_path, capsys):
    # the residual evolves on the 2/3-rule ball; a mode off it would only
    # ride the free flow, uncoupled, so the loader names the file instead
    src = tmp_path / "src"
    cfgp = write_ini(tmp_path, SMALL.format(out=src) + "formats = csv,fields\n")
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    bad = src / "field_du000.sgwv"
    field = load_field(bad, 1.0)
    field.coeffs[6, 0] = field.coeffs[-6, 0] = 1e-3  # |n| = 6 > 16/3, a real pair
    save_field(field, bad)
    text = SMALL.format(out=tmp_path / "next").replace(
        "stride = 2", f"stride = 2\ndata = file\ndata_file = {src}")
    capsys.readouterr()
    assert main(["simulate-hlsm", "--config", write_ini(tmp_path, text, name="next.ini")]) == 2
    err = capsys.readouterr().err
    assert "field_du000.sgwv" in err and "dealias" in err
    # without dealiasing the residual holds every mode, and the run goes ahead
    text = text.replace("stride = 2", "stride = 2\ndealias = false")
    assert main(["simulate-hlsm", "--config", write_ini(tmp_path, text, name="wide.ini")]) == 0


def file_data_run(tmp_path, edit):
    """A simulate-hlsm run started from the snapshots of a first run, after
    ``edit(coeffs)`` changed the position of component 0: its exit code and
    output directory."""
    src = tmp_path / "src"
    cfgp = write_ini(tmp_path, SMALL.format(out=src) + "formats = csv,fields\n")
    assert main(["simulate-hlsm", "--config", cfgp]) == 0
    field = load_field(src / "field_u000.sgwv", 1.0)
    edit(field.coeffs)
    save_field(field, src / "field_u000.sgwv")
    text = SMALL.format(out=tmp_path / "next").replace(
        "stride = 2", f"stride = 2\ndata = file\ndata_file = {src}")
    code = main(["simulate-hlsm", "--config", write_ini(tmp_path, text, name="next.ini")])
    return code, tmp_path / "next"


def test_file_data_that_is_not_finite_is_rejected(tmp_path, capsys):
    def put_nan(coeffs):
        coeffs[0, 0] = np.nan

    code, out = file_data_run(tmp_path, put_nan)
    err = capsys.readouterr().err
    assert code == 2
    assert "field_u000.sgwv" in err and "non-finite" in err
    assert not (out / "trajectory.csv").exists() and not (out / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_run_that_blows_up_is_an_error_without_a_manifest(tmp_path, capsys):
    def inflate(coeffs):
        coeffs *= 1e200

    code, out = file_data_run(tmp_path, inflate)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: non-finite field values at t = ")
    assert not (out / "trajectory.csv").exists() and not (out / "manifest.json").exists()


def test_file_data_requires_path_and_snapshots(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[dynamics]\ndata = file\n")
    assert main(["simulate-hlsm", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "data_file" in capsys.readouterr().err
    cfgp = write_ini(tmp_path, f"[dynamics]\ndata = file\ndata_file = {tmp_path}\n")
    assert main(["simulate-hlsm", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "missing snapshots" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence-rate", "invariance-check", "sample-gibbs"])
def test_exact_ball_guard_for_gibbs_commands(tmp_path, capsys, command):
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 4\n"
                               "[gibbs]\nchain = 20\nburnin = 5\n")
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "n_grid" in err and "4*M" in err


# Each validity rule: the one edit to SMALL that breaks it alone, and a
# fragment of the error it raises.
RULE_BREAKS = {
    "exact": (("M = 2", "M = 4"), "4*M"),
    "triple": (("M = 2", "M = 3"), "alias"),
    "wick": (("M = 2", "M = 8"), "Wick"),
    "dealias": (("M = 2", "M = 6"), "dealias"),
    "dt": (("dt = 0.05\nT = 0.2", "dt = 0.03\nT = 0.1"), "does not divide T"),
    "dt-range": (("dt = 0.05\nT = 0.2", "dt = 0.05\nT = 0.01"), "0 < dt <= T"),
    "dt-zero": (("dt = 0.05", "dt = 0"), "0 < dt <= T"),
    "stride": (("stride = 2", "stride = 3"), "stride 3 does not divide"),
    "h": (("h = 0.3", "h = 1.5"), "h <= 1"),
}
SIMULATE = ("simulate-hlsm", "simulate-meanfield")
STEPPED = ("renorm-table", *SIMULATE, "convergence-rate", "lln-decay", "invariance-check")
REJECTS = {
    "exact": ("convergence-rate", "sample-gibbs", "invariance-check"),
    "triple": ("lln-decay", "commutator"),
    "wick": SIMULATE,
    "dealias": SIMULATE,
    "dt": STEPPED,
    "dt-range": STEPPED,
    "dt-zero": STEPPED,
    "stride": (*SIMULATE, "convergence-rate"),
    "h": ("convergence-rate",),
}
ACCEPTS = {
    "stride": ("renorm-table", "lln-decay", "invariance-check"),
    "h": ("sample-gibbs",),
    "dt-range": ("sample-gibbs", "commutator"),
    "dt-zero": ("sample-gibbs", "commutator"),
}
RULE_MATRIX = ([(rule, command, True) for rule, cmds in REJECTS.items() for command in cmds]
               + [(rule, command, False) for rule, cmds in ACCEPTS.items() for command in cmds])


@pytest.mark.parametrize("rule,command,rejects", RULE_MATRIX,
                         ids=[f"{r}-{c}-{'rejects' if x else 'accepts'}" for r, c, x in RULE_MATRIX])
def test_validity_rule_matrix(tmp_path, capsys, rule, command, rejects):
    (old, new), fragment = RULE_BREAKS[rule]
    out = tmp_path / "out"
    assert old in SMALL
    cfgp = write_ini(tmp_path, SMALL.replace(old, new).format(out=out))
    with warnings.catch_warnings():
        # a rejected config fails before any work, so nothing warns; an
        # accepted MALA chain at a large h may warn about its acceptance
        warnings.simplefilter("error" if rejects else "ignore")
        code = main([command, "--config", cfgp])
    if rejects:
        assert code == 2
        assert fragment in capsys.readouterr().err
        assert list(out.iterdir()) == []
    else:
        assert code == 0
        assert (out / "manifest.json").exists()


def test_renorm_table_ignores_the_stride(tmp_path):
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, "[dynamics]\nT = 0.15\ndt = 0.01\nstride = 10\n"
                               f"[output]\ndir = {out}\n")
    assert main(["renorm-table", "--config", cfgp]) == 0
    assert len((out / "renorm.csv").read_text().splitlines()) == 1 + 16


def test_a_config_the_command_rejects_leaves_no_manifest(tmp_path, capsys):
    # both checks run inside the command, after the shared validation
    cases = (("lln-decay", "alias"), ("commutator", "needs n_grid > 18"))
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 3\n")
    for command, message in cases:
        out = tmp_path / command
        assert main([command, "--config", cfgp, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_grid_below_four_points_is_rejected(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 2\n")
    assert main(["renorm-table", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "n_grid" in capsys.readouterr().err


def test_simulate_rejects_a_noise_ball_the_grid_cannot_hold(tmp_path, capsys):
    # M = nyquist folds two lattice modes onto one slot
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 8\n[dynamics]\nT = 0.1\n")
    for command in ("simulate-hlsm", "simulate-meanfield"):
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        assert "nyquist" in capsys.readouterr().err
    # the 2/3-rule ball (radius 16/3) must contain the noise ball when dealiasing
    for dealias, code in (("true", 2), ("false", 0)):
        cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 6\n"
                                   f"[dynamics]\nT = 0.1\ndealias = {dealias}\n")
        assert main(["simulate-hlsm", "--config", cfgp, "--out", str(tmp_path / "o")]) == code


def test_unknown_format_rejected(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[output]\nformats = csv,hdf5\n")
    assert main(["renorm-table", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "hdf5" in capsys.readouterr().err


def test_invariance_check_csv_header(tmp_path):
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, SMALL.format(out=out))
    assert main(["invariance-check", "--config", cfgp]) == 0
    head = (out / "invariance.csv").read_text().splitlines()[0]
    assert head == "observable,ks_stat,p_value,mean_t0,se_t0,mean_t1,se_t1"


def test_invariance_check_needs_two_retained_samples(tmp_path, capsys):
    # chain 80, burnin 20, thin 100 keeps one sample, which has no spread to compare
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 2\n"
                               "[dynamics]\nN = 2\ndt = 0.1\nT = 0.2\n"
                               "[gibbs]\nh = 0.3\nchain = 80\nburnin = 20\nthin = 100\n"
                               f"[experiment]\nseed = 3\n[output]\ndir = {out}\n")
    assert main(["invariance-check", "--config", cfgp]) == 2
    assert "n_samples" in capsys.readouterr().err
    assert not (out / "invariance.csv").exists()


def test_gibbs_modes_se_counts_the_chain_autocorrelation(tmp_path):
    # the criterion-11 chain: iact about 6 at thin 5, so the SE of independent
    # draws grows by sqrt(iact / thin)
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 2\n"
                               "[dynamics]\nN = 2\ndt = 0.1\nT = 0.4\nstride = 2\n"
                               "[gibbs]\nh = 0.3\nchain = 80\nburnin = 20\nthin = 5\n"
                               f"[experiment]\nseed = 13\n[output]\ndir = {out}\n")
    assert main(["sample-gibbs", "--config", cfgp]) == 0
    samples = sample_gibbs(GridSpec(16, 1.0), GibbsSamplerConfig(2, 2, 1.0, 0.3, 80, 20, thin=5), 13)
    factor = np.sqrt(max(samples.iact / 5, 1.0))
    assert factor > 1.05
    table = np.loadtxt(out / "gibbs_modes.csv", delimiter=",", skiprows=1)
    assert len(table) == 6
    for n1, n2, _, se, _ in table:
        assert se == gibbs_vs_gaussian_covariance(samples, 0, (int(n1), int(n2)))["se"] * factor


def test_commutator_csv_header(tmp_path):
    out = tmp_path / "out"
    cfgp = write_ini(tmp_path, SMALL.format(out=out)
                     .replace("N_list = 2,3,4", "N_list = 2,3")
                     .replace("reps = 2", "reps = 1"))
    assert main(["commutator", "--config", cfgp]) == 0
    assert (out / "commutator.csv").read_text().splitlines()[0] == "M,defect_max"


def test_thread_map_matches_serial_map():
    items = list(range(23))
    fn = lambda k: np.sin(k) * k
    assert thread_map(fn, items, 4) == [fn(k) for k in items]


def test_bad_thread_values(tmp_path, capsys, monkeypatch):
    cfgp = write_ini(tmp_path, SMALL.format(out=tmp_path / "o"))
    assert main(["renorm-table", "--config", cfgp, "--threads", "0"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("SIGMA_WAVE_THREADS", "many")
    assert main(["renorm-table", "--config", cfgp]) == 2
    assert "SIGMA_WAVE_THREADS" in capsys.readouterr().err


def test_load_config_defaults_round_trip():
    cfg = load_config(None)
    assert cfg == DEFAULTS and cfg is not DEFAULTS
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.ini")
