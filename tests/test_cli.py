"""Contract tests for the command line front end: config resolution,
manifest hashing, determinism, and thread independence."""

import copy
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sigma_wave.cli import (DEFAULTS, ConfigError, config_hash, coupled_distance, load_config,
                            main, thread_map)
from sigma_wave.diagnostics import _LLN_KINDS, difference_norms
from sigma_wave.dynamics import step_linear_ensemble, step_renormalized_wave
from sigma_wave.gibbs import GibbsSamplerConfig, coupled_gibbs_gaussian_pair
from sigma_wave.grid import GridSpec
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
        texts.append((out / "convergence.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


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
    times, states_n, states_l = [0.0], [a], [b]
    for k in range(n_steps):
        a = step_renormalized_wave(a, streams, k, dt, alpha, float(M))
        b = step_linear_ensemble(b, streams, k, dt, float(M))
        if (k + 1) % stride == 0:
            times.append((k + 1) * dt)
            states_n.append(a)
            states_l.append(b)
    want = difference_norms(SimpleNamespace(times=np.asarray(times), states=states_n),
                            SimpleNamespace(times=np.asarray(times), states=states_l), s, 0)[0]
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


def test_file_data_requires_path_and_snapshots(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[dynamics]\ndata = file\n")
    assert main(["simulate-hlsm", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "data_file" in capsys.readouterr().err
    cfgp = write_ini(tmp_path, f"[dynamics]\ndata = file\ndata_file = {tmp_path}\n")
    assert main(["simulate-hlsm", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "missing snapshots" in capsys.readouterr().err


def test_exact_ball_guard_for_gibbs_commands(tmp_path, capsys):
    cfgp = write_ini(tmp_path, "[grid]\nn_grid = 16\n[truncation]\nM = 4\n"
                               "[gibbs]\nchain = 20\nburnin = 5\n")
    assert main(["sample-gibbs", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "n_grid" in err and "4*M" in err


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
