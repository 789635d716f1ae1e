"""Output checks behind ``failed_frac``.

The checks hold for a correct program whatever its rounding: they test
headers, row counts, finiteness and statistical windows, never byte digests
(MALA accept/reject turns a last-bit change into a new chain).  Each window
is the mean of the values observed on the calibration seeds, plus or minus
five of their standard deviations, rounded outward; ``calibrate.py`` measures
them and writes them to ``calibration.json``, where the checks read them.
``selftest.py`` shows every check failing when a layer is deliberately broken.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

CALIBRATION = Path(__file__).resolve().with_name("calibration.json")
LLN_KINDS = ("wick_square_avg", "wick_triple_avg", "wick_triple_avg_an")

# checks of a value against its calibrated window: the fitted log-log slope of
# the mean norm against N, and the final energy_en of hlsm-trajectory
WINDOWED = {"slope", *(f"slope.{kind}" for kind in LLN_KINDS), "energy"}
# KS and mean-shift p-values, gibbs-invariance: uniform for a correct program,
# so a floor of 1e-4 fails a correct run with probability below 1e-3
FLOORED = {"ks_p", "mean_shift_p"}
P_FLOOR = 1e-4

NAMES = {
    "coupled-rate": ["tables", "finite", "slope"],
    "lln-linear": ["tables", "finite"] + [f"slope.{kind}" for kind in LLN_KINDS],
    "gibbs-invariance": ["tables", "finite", "ks_p", "mean_shift_p"],
    "hlsm-trajectory": ["tables", "finite", "snapshots", "energy"],
}

RATE_HEADER = "N,mean_norm,se"
INVARIANCE_HEADER = "observable,ks_stat,p_value,mean_t0,se_t0,mean_t1,se_t1"
INVARIANCE_ROWS = ["wick_square_int", "low_mode_energy", "potential"]
TRAJECTORY_HEADER = "t,v_h1,vdot_l2,u1_wick_int,energy_en"


@functools.cache
def windows() -> dict:
    """workload -> check -> [low, high], as ``calibrate.py`` wrote them."""
    record = json.loads(CALIBRATION.read_text())["checks"]
    return {workload: {name: c["window"] for name, c in per.items() if c["window"]}
            for workload, per in record.items()}


class CheckFailed(Exception):
    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


def run(workload: str, cfg: dict, out: Path) -> dict:
    """Every check of ``workload`` on the outputs in ``out``.

    Returns ``{name: {"ok": bool, "value": number or None, "detail": str}}``.
    A check that cannot be evaluated because an output is missing or
    malformed fails.
    """
    results = {}

    def record(name, fn):
        try:
            value, detail = fn()
            results[name] = {"ok": True, "value": value, "detail": detail}
        except CheckFailed as err:
            results[name] = {"ok": False, "value": err.value, "detail": str(err)}
        except (KeyError, IndexError, ValueError, ZeroDivisionError) as err:
            results[name] = {"ok": False, "value": None,
                             "detail": f"not evaluable: {type(err).__name__}: {err}"}

    if workload == "coupled-rate":
        _rate_checks(out, cfg, workload, {"convergence": ("fit", "slope")}, record)
    elif workload == "lln-linear":
        _rate_checks(out, cfg, workload,
                     {f"lln_{k}": (f"fit_{k}", f"slope.{k}") for k in LLN_KINDS}, record)
    elif workload == "gibbs-invariance":
        _invariance_checks(out, record)
    elif workload == "hlsm-trajectory":
        _trajectory_checks(out, cfg, record)
    else:
        raise KeyError(workload)
    return results


def _read_table(path: Path, header: str, label_column: bool = False) -> list:
    """Rows of a CSV with an exact header; cells after the label parsed as floats."""
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} != {header!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != header.count(",") + 1:
            raise CheckFailed(f"{path.name}: ragged row {line!r}")
        head = cells[:1] if label_column else []
        try:
            rows.append(head + [float(c) for c in cells[len(head):]])
        except ValueError:
            raise CheckFailed(f"{path.name}: non-numeric cell in {line!r}") from None
    return rows


def _finite(tables: dict):
    if not tables:
        raise CheckFailed("no readable table")
    values = [v for rows in tables.values() for row in rows for v in row
              if isinstance(v, float)]
    bad = sum(not math.isfinite(v) for v in values)
    if bad:
        raise CheckFailed(f"{bad} of {len(values)} cells non-finite", bad)
    return len(values), f"{len(values)} cells finite"


def _window(value: float, workload: str, name: str, what: str):
    try:
        lo, hi = windows()[workload][name]
    except (OSError, ValueError, KeyError):
        raise CheckFailed(f"{what} = {value:.6g}: no window for {workload} {name} "
                          f"in {CALIBRATION.name}", value) from None
    if not lo <= value <= hi:
        raise CheckFailed(f"{what} = {value:.6g} outside [{lo}, {hi}]", value)
    return value, f"{what} = {value:.6g} in [{lo}, {hi}]"


def _slope(rows) -> float:
    """Least-squares slope of log(mean_norm) against log(N)."""
    xs = [math.log(r[0]) for r in rows]
    ys = [math.log(r[1]) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _rate_checks(out: Path, cfg: dict, workload: str, stems: dict, record) -> None:
    """Rate tables ``<stem>.csv`` with their fit tables; stems maps to (fit, check)."""
    n_list = list(cfg["experiment"]["N_list"])
    tables = {}

    def load():
        for stem, (fit, _) in stems.items():
            rows = _read_table(out / f"{stem}.csv", RATE_HEADER)
            if [r[0] for r in rows] != n_list:
                raise CheckFailed(f"{stem}.csv: N column {[r[0] for r in rows]} != {n_list}")
            fit_rows = _read_table(out / f"{fit}.csv", "x,y")
            if len(fit_rows) != len(n_list):
                raise CheckFailed(f"{fit}.csv: {len(fit_rows)} rows, expected {len(n_list)}")
            tables[stem], tables[fit] = rows, fit_rows
        return len(tables), f"{len(tables)} tables with their headers and rows"
    record("tables", load)
    record("finite", lambda: _finite(tables))
    for stem, (_, name) in stems.items():
        record(name, lambda stem=stem, name=name: _window(
            _slope(tables[stem]), workload, name, f"{stem} slope"))


def _mean_shift_p(row) -> float:
    """Two-sided normal p-value of the difference of the t0 and t1 means."""
    _, _, _, m0, s0, m1, s1 = row
    return math.erfc(abs(m1 - m0) / math.hypot(s0, s1) / math.sqrt(2.0))


def _floor(values, what: str):
    low = [v for v in values if not v >= P_FLOOR]  # nan counts as low
    if low:
        raise CheckFailed(f"{what} {low[0]:.3g} below {P_FLOOR}", low[0])
    return min(values), f"smallest {what} = {min(values):.3g}"


def _invariance_checks(out: Path, record) -> None:
    tables = {}

    def load():
        rows = _read_table(out / "invariance.csv", INVARIANCE_HEADER, label_column=True)
        if [r[0] for r in rows] != INVARIANCE_ROWS:
            raise CheckFailed(f"observables {[r[0] for r in rows]} != {INVARIANCE_ROWS}")
        tables["invariance"] = rows
        return len(rows), "invariance.csv has its header and observables"
    record("tables", load)
    record("finite", lambda: _finite(tables))
    record("ks_p", lambda: _floor([r[2] for r in tables["invariance"]], "KS p-value"))
    record("mean_shift_p", lambda: _floor(
        [_mean_shift_p(r) for r in tables["invariance"]], "mean-shift p-value"))


def _trajectory_checks(out: Path, cfg: dict, record) -> None:
    d = cfg["dynamics"]
    tables = {}

    def load():
        rows = _read_table(out / "trajectory.csv", TRAJECTORY_HEADER)
        nodes = round(d["T"] / d["dt"]) // d["stride"] + 1
        times = [k * d["stride"] * d["dt"] for k in range(nodes)]
        if len(rows) != nodes or any(abs(r[0] - t) > 1e-9 for r, t in zip(rows, times)):
            raise CheckFailed(f"{len(rows)} nodes at t = {[r[0] for r in rows]}, "
                              f"expected {nodes} at {times}")
        tables["trajectory"] = rows
        return nodes, f"trajectory.csv has its header and {nodes} nodes"
    record("tables", load)
    record("finite", lambda: _finite(tables))
    record("snapshots", lambda: _snapshots(out, cfg))
    record("energy", lambda: _window(tables["trajectory"][-1][4], "hlsm-trajectory",
                                     "energy", "final energy_en"))


def _snapshots(out: Path, cfg: dict):
    """Every component's (u, du) snapshot reloads at the configured grid as a real field."""
    import numpy as np
    from sigma_wave.grid import load_field

    n, n_grid, m = cfg["dynamics"]["N"], cfg["grid"]["n_grid"], cfg["grid"]["m"]
    files = sorted(p.name for p in out.glob("field_*.sgwv"))
    if len(files) != 2 * n:
        raise CheckFailed(f"{len(files)} snapshot files, expected {2 * n}")
    worst = 0.0
    for j in range(n):
        for stem in ("u", "du"):
            path = out / f"field_{stem}{j:03d}.sgwv"
            field = load_field(path, m)
            if field.spec.n_grid != n_grid:
                raise CheckFailed(f"{path.name}: grid {field.spec.n_grid} != {n_grid}")
            c = field.coeffs
            if not np.all(np.isfinite(c)):
                raise CheckFailed(f"{path.name}: non-finite coefficients")
            mirror = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
            worst = max(worst, float(np.max(np.abs(c - mirror)) / max(np.max(np.abs(c)), 1e-300)))
    if worst > 1e-12:
        raise CheckFailed(f"snapshots are not real fields: Hermitian defect {worst:.3g}", worst)
    return 2 * n, f"{2 * n} snapshots reload at n_grid {n_grid}, Hermitian defect {worst:.2g}"
