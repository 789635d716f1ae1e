"""``scripts/same_outputs.py`` on two fabricated checkouts: a stand-in CLI
that writes one CSV and a manifest, a one-workload benchmark module, and
optionally one demo that prints a value."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sigma_wave.grid import GridSpec, SpectralField, save_field

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CLI = '''import argparse, configparser
from pathlib import Path

VALUE = {value!r}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("command")
    for flag in ("--config", "--out", "--seed", "--threads"):
        parser.add_argument(flag)
    args = parser.parse_args()
    cfg = configparser.ConfigParser()
    cfg.read(args.config)
    out = Path(args.out or cfg.get("output", "dir"))
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(args.command + "\\n")
    (out / "table.csv").write_text(f"x,y\\n1,{{VALUE!r}}\\n")


if __name__ == "__main__":
    main()
'''

WORKLOADS = '''WORKLOADS = {"tiny": None}


def write_inputs(workload, seed, directory):
    (directory / "run.ini").write_text("[output]\\ndir = out\\n")
    return {}, ["tiny-command", "--config", "run.ini", "--threads", "1"]
'''


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPTS / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, value: float, demo=None) -> Path:
    (root / "src" / "sigma_wave").mkdir(parents=True)
    (root / "src" / "sigma_wave" / "__init__.py").write_text("")
    (root / "src" / "sigma_wave" / "cli.py").write_text(CLI.format(value=value))
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    if demo is not None:
        (root / "demos").mkdir()
        (root / "demos" / "01_tiny.py").write_text(
            f"from sigma_wave.cli import VALUE\nprint({demo!r}, VALUE)\n")
    return root


def run(tmp_path, capsys, parent_value, change_value, demos=(None, None)):
    parent = checkout(tmp_path / "parent", parent_value, demos[0])
    change = checkout(tmp_path / "change", change_value, demos[1])
    code = load_script().main([str(parent), str(change), "--seed", "3"])
    sys.modules.pop("workloads", None)
    return code, capsys.readouterr().out


def test_identical_checkouts_report_no_difference(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0.25, 0.25)
    assert code == 0
    # eight subcommands at the criterion-11 config and one workload, two files each
    assert "18 files and demo outputs compared at seed 3; 0 differences" in out
    assert "differs" not in out


def test_a_changed_csv_is_listed_with_its_relative_difference(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0.25, 0.2500005)
    assert code == 1
    assert ("criterion-11/sample-gibbs/table.csv: bytes differ, "
            "largest relative difference 2e-06") in out
    assert "workload/tiny/table.csv: bytes differ" in out
    assert "manifest.json" not in out


def test_the_demos_run_on_both_sides_and_their_output_is_compared(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0.25, 0.25, demos=("a", "a"))
    assert code == 0
    assert "demo/01_tiny.py: same" in out
    assert "19 files and demo outputs compared at seed 3; 0 differences" in out
    # each side imports its own program: a changed value shows in the output
    code, out = run(tmp_path / "value", capsys, 0.25, 0.5, demos=("a", "a"))
    assert code == 1
    assert "demo/01_tiny.py: printed output differs" in out
    code, out = run(tmp_path / "text", capsys, 0.25, 0.25, demos=("a", "b"))
    assert code == 1
    assert "demo/01_tiny.py: printed output differs" in out


def test_a_cell_difference_is_relative_to_its_column(tmp_path):
    # a cell that cancels to near zero is measured against its column's
    # largest magnitude, so one rounding of a large term stays small
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,w\n0,0.5\n0.1,0.000454\n")
    b.write_text("t,w\n0,0.5\n0.1,0.00045400000000001\n")
    csv_difference = load_script().csv_difference
    assert csv_difference(a, b) == pytest.approx(1e-17 / 0.5, rel=1e-3)
    assert csv_difference(a, a) == 0.0
    b.write_text("t,w\n0,0.5\n0.1,nan\n")
    assert csv_difference(a, b) == float("inf")
    b.write_text("t,w\n0,0.5\n")
    assert csv_difference(a, b) == float("inf")


def test_a_changed_field_snapshot_is_listed_with_its_relative_difference(tmp_path):
    # the script reads the program's snapshot format with the standard
    # library; a difference is relative to PARENT's largest coefficient
    coeffs = np.zeros((4, 4), complex)
    coeffs[0, 1], coeffs[0, 3] = 2.0 - 1.0j, 2.0 + 1.0j
    changed = coeffs.copy()
    changed[0, 1] += 3e-6 + 4e-6j
    script = load_script()
    for side, c in (("a", coeffs), ("b", changed)):
        (tmp_path / side).mkdir()
        save_field(SpectralField(GridSpec(4, 1.0), c), tmp_path / side / "field_u000.sgwv")
    a, b = (tmp_path / side / "field_u000.sgwv" for side in "ab")
    assert script.field_difference(a, b) == pytest.approx(5e-6 / 5 ** 0.5, rel=1e-9)
    assert script.field_difference(a, a) == 0.0
    assert script.compare("run", tmp_path / "a", tmp_path / "b") == [
        "run/field_u000.sgwv: bytes differ, largest relative difference 2.24e-06"]
    changed[1, 1] = np.nan
    save_field(SpectralField(GridSpec(4, 1.0), changed), b)
    assert script.field_difference(a, b) == float("inf")
    save_field(SpectralField(GridSpec(6, 1.0), np.zeros((6, 6))), b)
    assert script.field_difference(a, b) == float("inf")


def test_the_script_runs_the_criterion_11_config():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    test = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "test_criterion_11_byte_identical_reruns")
    written = [node.args[0].value for node in ast.walk(test)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "write_text"]
    assert written == [load_script().CRITERION_11_INI]
