"""Check that two checkouts write the same output files, byte for byte.

    python3 scripts/same_outputs.py PARENT CHANGE --seed S

PARENT and CHANGE are the roots of two checkouts.  Each runs, with its own
``src`` on ``PYTHONPATH`` and the interpreter running this script:

* the criterion-11 config of ``tests/test_acceptance.py`` with
  ``formats = csv,fields``, under all eight subcommands, at program seed S;
* the INI of every workload in ``perfbench/workloads.py`` at benchmark seed
  S, written once by CHANGE's module (imported, not edited) and run by both;
* every script in CHANGE's ``demos/``, each side running its own copy, whose
  printed output is compared (the demos fix their own seeds).

Each run has its own temporary working directory and writes to the same
relative output directory, so the manifests compare equal too.  Every file
whose bytes differ is listed, with the largest difference between the
numbers of a CSV relative to the largest magnitude in their column, or
between the coefficients of a ``.sgwv`` field snapshot relative to the
largest coefficient of PARENT's, and so
is every file present on one side only, every demo whose output differs and
every run that fails.  Exits 1 when anything differs, else 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import cmath
import filecmp
import importlib.util
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("renorm-table", "simulate-hlsm", "simulate-meanfield", "convergence-rate",
            "lln-decay", "sample-gibbs", "invariance-check", "commutator")
CRITERION_11_INI = (
    "[grid]\nn_grid = 16\n[truncation]\nM = 2\n"
    "[dynamics]\nN = 2\ndt = 0.1\nT = 0.4\nstride = 2\n"
    "[gibbs]\nh = 0.3\nchain = 80\nburnin = 20\nthin = 5\n"
    "[experiment]\nN_list = 2,3,4\nreps = 2\nseed = 13\n"
)
FORMATS = "[output]\nformats = csv,fields\n"


def _run(root: Path, args: list, work: Path, ini_text: str = "") -> tuple:
    """Run ``python args`` with ``root``'s ``src`` in ``work``, next to
    ``run.ini``; ``(stdout, error text or None)``."""
    work.mkdir()
    (work / "run.ini").write_text(ini_text)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable] + args, cwd=work, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return done.stdout, f"exit {done.returncode}: {done.stderr.strip()[-400:]}"
    return done.stdout, None


def _numbers(path: Path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()]


def csv_difference(a: Path, b: Path) -> float:
    """Largest difference between the cells of two CSV files, each relative
    to the largest magnitude in its column across both files, so a cell that
    cancels to near zero does not inflate a rounding change; inf when their
    shapes or non-numeric cells differ, or a number turns non-finite."""
    rows_a, rows_b = _numbers(a), _numbers(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return float("inf")
    scale, diffs = {}, []
    for row_a, row_b in zip(rows_a, rows_b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x == y:
                    continue
                return float("inf")
            scale[col] = max(scale.get(col, 0.0), abs(fx), abs(fy))
            if x != y:
                if not math.isfinite(fx - fy):
                    return float("inf")
                diffs.append((col, abs(fx - fy)))
    return max((d / scale[col] for col, d in diffs if scale[col] > 0), default=0.0)


def _coefficients(raw: bytes) -> list:
    """The complex coefficients of a snapshot's ``<c16`` payload, after its
    16-byte header."""
    values = struct.unpack(f"<{(len(raw) - 16) // 8}d", raw[16:])
    return [complex(re, im) for re, im in zip(values[::2], values[1::2])]


def field_difference(a: Path, b: Path) -> float:
    """Largest ``|a - b|`` over the coefficients of two field snapshots,
    relative to the largest ``|a|``; inf when their headers or sizes differ,
    either holds a non-finite value, or ``a`` is zero and ``b`` is not."""
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a[:16] != raw_b[:16] or len(raw_a) != len(raw_b) or len(raw_a) % 16:
        return float("inf")
    ca, cb = _coefficients(raw_a), _coefficients(raw_b)
    if not all(cmath.isfinite(x) for x in ca + cb):
        return float("inf")
    diff = max((abs(x - y) for x, y in zip(ca, cb)), default=0.0)
    scale = max((abs(x) for x in ca), default=0.0)
    return diff / scale if scale else (float("inf") if diff else 0.0)


DIFFERENCE = {".csv": csv_difference, ".sgwv": field_difference}


def compare(label: str, dir_a: Path, dir_b: Path) -> list:
    """One line per file that differs between two output directories."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines = [f"{label}/{name}: only in PARENT" for name in sorted(names_a - names_b)]
    lines += [f"{label}/{name}: only in CHANGE" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        a, b = dir_a / name, dir_b / name
        if filecmp.cmp(a, b, shallow=False):
            continue
        difference = DIFFERENCE.get(name.suffix)
        detail = f", largest relative difference {difference(a, b):.3g}" if difference else ""
        lines.append(f"{label}/{name}: bytes differ{detail}")
    return lines


def runs(change: Path, seed: int) -> list:
    """``(label, argv, ini_text)`` of every run, the same for both sides."""
    out = [(f"criterion-11/{command}", [command, "--config", "run.ini", "--out", "out",
                                        "--seed", str(seed)], CRITERION_11_INI + FORMATS)
           for command in COMMANDS]
    spec = importlib.util.spec_from_file_location("workloads",
                                                  change / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # dataclasses look their module up in sys.modules
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            _, argv = workloads.write_inputs(name, seed, Path(tmp))
            out.append((f"workload/{name}", argv, (Path(tmp) / "run.ini").read_text()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"PARENT": args.parent.resolve(), "CHANGE": args.change.resolve()}
    problems, compared = [], 0
    for label, run_argv, ini_text in runs(sides["CHANGE"], args.seed):
        with tempfile.TemporaryDirectory() as tmp:
            found = []
            for side, root in sides.items():
                _, error = _run(root, ["-m", "sigma_wave.cli"] + run_argv, Path(tmp) / side,
                                ini_text)
                if error is not None:
                    found.append(f"{label}: {side} run failed, {error}")
            if not found:
                outs = [Path(tmp) / side / "out" for side in sides]
                found = compare(label, *outs)
                compared += sum(1 for p in outs[0].rglob("*") if p.is_file())
        print(f"{label}: {'differs' if found else 'same'}", flush=True)
        problems += found
    for demo in sorted(p.name for p in (sides["CHANGE"] / "demos").glob("*.py")):
        label, found, printed = f"demo/{demo}", [], []
        with tempfile.TemporaryDirectory() as tmp:
            for side, root in sides.items():
                out, error = _run(root, [str(root / "demos" / demo)], Path(tmp) / side)
                if error is not None:
                    found.append(f"{label}: {side} run failed, {error}")
                printed.append(out)
        if not found and printed[0] != printed[1]:
            found.append(f"{label}: printed output differs")
        compared += 1
        print(f"{label}: {'differs' if found else 'same'}", flush=True)
        problems += found
    for line in problems:
        print(line)
    print(f"{compared} files and demo outputs compared at seed {args.seed}; "
          f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
