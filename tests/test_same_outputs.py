"""``scripts/same_outputs.py`` on two fabricated checkouts: a stand-in CLI
that writes one CSV and a manifest, and a one-workload benchmark module."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

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


def checkout(root: Path, value: float) -> Path:
    (root / "src" / "sigma_wave").mkdir(parents=True)
    (root / "src" / "sigma_wave" / "__init__.py").write_text("")
    (root / "src" / "sigma_wave" / "cli.py").write_text(CLI.format(value=value))
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    return root


def run(tmp_path, capsys, parent_value, change_value):
    parent = checkout(tmp_path / "parent", parent_value)
    change = checkout(tmp_path / "change", change_value)
    code = load_script().main([str(parent), str(change), "--seed", "3"])
    sys.modules.pop("workloads", None)
    return code, capsys.readouterr().out


def test_identical_checkouts_report_no_difference(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0.25, 0.25)
    assert code == 0
    # eight subcommands at the criterion-11 config and one workload, two files each
    assert "18 files compared at seed 3; 0 differences" in out
    assert "differs" not in out


def test_a_changed_csv_is_listed_with_its_relative_difference(tmp_path, capsys):
    code, out = run(tmp_path, capsys, 0.25, 0.2500005)
    assert code == 1
    assert ("criterion-11/sample-gibbs/table.csv: bytes differ, "
            "largest relative difference 2e-06") in out
    assert "workload/tiny/table.csv: bytes differ" in out
    assert "manifest.json" not in out


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


def test_the_script_runs_the_criterion_11_config():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    test = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "test_criterion_11_byte_identical_reruns")
    written = [node.args[0].value for node in ast.walk(test)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "write_text"]
    assert written == [load_script().CRITERION_11_INI]
