"""The benchmark in ``perfbench/`` wraps program names from outside: traced
call sites (``perfbench/tracer.py`` ``SITES``) and the cached table builders
it fills before timing (``perfbench/child.py`` ``_prewarm``).  A refactor that
removes or renames one of them fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from sigma_wave import gibbs
from sigma_wave.grid import GridSpec

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


def test_every_chain_gradient_goes_through_the_traced_drift(monkeypatch):
    # the benchmark's drift layer and its drift-sign break patch
    # gibbs.renormalized_drift; each chain gradient must call it, once
    calls = []
    drift = gibbs.renormalized_drift

    def counted(*args, **kwargs):
        calls.append(1)
        return drift(*args, **kwargs)

    monkeypatch.setattr(gibbs, "renormalized_drift", counted)
    spec = GridSpec(8, 1.0)
    cfg = gibbs.GibbsSamplerConfig(2, 2, 1.0, 0.5, 12, 2, thin=2, acceptance_band=(0.0, 1.0))
    gibbs.coupled_gibbs_gaussian_pair(spec, cfg, root_seed=3)
    assert len(calls) == cfg.chain_length
    calls.clear()
    samples = gibbs.sample_gibbs(spec, cfg, root_seed=3)
    assert len(calls) == cfg.chain_length + 1
    assert np.all(np.isfinite(samples.positions))
