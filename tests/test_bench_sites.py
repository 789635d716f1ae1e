"""The benchmark in ``perfbench/`` wraps program names from outside: traced
call sites (``perfbench/tracer.py`` ``SITES``) and the cached table builders
it fills before timing (``perfbench/child.py`` ``_prewarm``).  A refactor that
removes or renames one of them fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    assert load("tracer").missing_sites() == []


def test_every_prewarmed_table_builder_exists():
    cfg = {"grid": {"n_grid": 16, "m": 1.0}, "truncation": {"M": 2}, "dynamics": {"dt": 0.1}}
    tables = ("_transition_tables", "_drift_tables", "_half_lattice")
    assert load("child")._prewarm(cfg, tables) == []
