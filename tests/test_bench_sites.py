"""The benchmark in ``perfbench/`` wraps program names from outside: traced
call sites (``perfbench/tracer.py`` ``SITES``) and the cached table builders
it fills before timing (``perfbench/child.py`` ``_prewarm``).  A refactor that
removes or renames one of them fails here, not only in a benchmark run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from sigma_wave import dynamics, gibbs
from sigma_wave.grid import ComponentEnsemble, GridSpec, random_field
from sigma_wave.noise import NoiseKind, NoiseStream, RenormConstants

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


def test_every_drift_transforms_through_the_traced_real_ffts(monkeypatch):
    # the benchmark's fft layer wraps numpy.fft by attribute; a drift that
    # moved to untraced or complex transforms would change what it measures
    calls = {"rfft2": 0, "irfft2": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("a drift called a complex full-grid FFT")

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    monkeypatch.setattr(np.fft, "fft2", forbidden)
    monkeypatch.setattr(np.fft, "ifft2", forbidden)
    spec, n = GridSpec(16, 1.0), 3
    gen = np.random.default_rng(5)
    pos = np.stack([random_field(spec, gen, truncation=3.0).coeffs for _ in range(n)])
    ens = ComponentEnsemble(spec, pos, pos.copy())

    def counts(run):
        for name in calls:
            calls[name] = 0
        run()
        return calls["irfft2"], calls["rfft2"]

    assert counts(lambda: dynamics.renormalized_drift(ens, 0.2, 3.0)) == (1, 1)
    renorm = RenormConstants.zero(1.0, 0.1, 4)
    for system in (dynamics.HlsmState, dynamics.MeanFieldState):
        state = system.zero(spec, n, renorm, root_seed=2)
        state = replace(state, v=ens, psi=ens)
        assert counts(lambda: dynamics.hlsm_rhs(state)) == (2, 1)
    streams = [NoiseStream(4, j, NoiseKind.DRIVE) for j in range(n)]
    assert counts(lambda: dynamics.step_renormalized_wave(ens, streams, 0, 0.1, 0.2, 3.0)) == (2, 2)
