"""The benchmark in ``perfbench/`` wraps program names from outside: traced
call sites (``perfbench/tracer.py`` ``SITES``) and the cached table builders
it fills before timing (``perfbench/child.py`` ``_prewarm``).  A refactor that
removes or renames one of them fails here, not only in a benchmark run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from sigma_wave import diagnostics, dynamics, gibbs
from sigma_wave.grid import GridSpec, random_field
from sigma_wave.noise import NoiseKind, NoiseStream, RenormConstants

from oracles import ball_ensemble

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
    assert np.all(np.isfinite(samples.draws.pos))


TRACED_FFTS = [site.partition(":")[2] for site in load("tracer").SITES["fft"]]


def count_traced_ffts(monkeypatch):
    """Count the calls of every ``numpy.fft`` name the benchmark's fft layer
    wraps; a complex full-grid fft2/ifft2, or a 1-D name that layer does not
    see, raises."""
    calls = dict.fromkeys(TRACED_FFTS, 0)

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(name):
        def raises(*args, **kwargs):
            raise AssertionError(f"numpy.fft.{name} was called")
        return raises

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    for name in ("fft2", "ifft2", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden(name))
    return calls


def counts_of(calls, run):
    """The nonzero counts of ``calls`` made by ``run()``."""
    for name in calls:
        calls[name] = 0
    run()
    return {name: k for name, k in calls.items() if k}


# a ball stack's transform runs one axis at a time, pruned or not: ifftn +
# irfftn to the grid, rfftn + fftn back
TO_GRID, TO_COEFFS = ("ifftn", "irfftn"), ("rfftn", "fftn")


def test_every_drift_transforms_through_the_traced_real_ffts(monkeypatch):
    # the benchmark's fft layer wraps numpy.fft by attribute; a drift that
    # moved to untraced or complex transforms would change what it measures
    calls = count_traced_ffts(monkeypatch)
    spec, n = GridSpec(16, 1.0), 3
    gen = np.random.default_rng(5)
    pos = np.stack([random_field(spec, gen, truncation=3.0).coeffs for _ in range(n)])
    ens = ball_ensemble(spec, pos, pos, 3.0)

    once = dict.fromkeys(TO_GRID + TO_COEFFS, 1)
    assert counts_of(calls, lambda: dynamics.renormalized_drift(ens, 0.2)) == once
    renorm = RenormConstants.build(1.0, 3, 0.1, 4)
    for system in (dynamics.HlsmState, dynamics.MeanFieldState):
        # v and psi to the grid, the drift back
        state = system.zero(spec, n, renorm, root_seed=2)
        state = replace(state, v=ball_ensemble(spec, pos, pos, state.v.radius), psi=ens)
        assert counts_of(calls, lambda: dynamics.hlsm_rhs(state)) == {
            "ifftn": 2, "irfftn": 2, "rfftn": 1, "fftn": 1}
    streams = [NoiseStream(4, j, NoiseKind.DRIVE) for j in range(n)]
    assert counts_of(calls, lambda: dynamics.step_renormalized_wave(
        ens, streams, 0, 0.1, 0.2)) == dict.fromkeys(once, 2)


def test_lln_estimator_draws_every_kick_through_the_traced_name(monkeypatch):
    # the selftest's kick-retry break patches dynamics._draw_kick; the free
    # steps of lln-decay must look it up there at call time, once per
    # (task, step) for the kicks of every component
    calls = []
    draw = dynamics._draw_kick

    def counted(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_draw_kick", counted)
    N_list, reps, n_steps = [1, 3], 2, 3
    diagnostics.lln_estimator(GridSpec(16, 1.0), ("wick_square_avg",), N_list, 2,
                              n_steps * 0.1, reps, 0.1, 5, dt=0.1)
    assert len(calls) == n_steps * len(N_list) * reps


def test_lln_estimator_and_the_residual_step_use_real_ffts_only(monkeypatch):
    calls = count_traced_ffts(monkeypatch)
    N_list, reps, n_steps = [2, 3], 1, 2
    # per task and node: psi's grid values, then the full-grid rfft2 and
    # irfft2 of the sup proxy per kind
    nodes = len(N_list) * reps * (n_steps + 1)
    assert counts_of(calls, lambda: diagnostics.lln_estimator(
        GridSpec(16, 1.0), diagnostics._LLN_KINDS, N_list, 2, n_steps * 0.1, reps, 0.1, 5,
        dt=0.1)) == {"irfft2": 3 * nodes, "rfft2": 3 * nodes, "ifftn": nodes, "irfftn": nodes}
    spec = GridSpec(16, 1.0)
    state = dynamics.HlsmState.stationary(spec, 2, RenormConstants.build(1.0, 3, 0.1, 2), 4)
    # per stage: v to the grid and back, psi to the grid
    assert counts_of(calls, lambda: dynamics.step_hlsm(state, 0.1)) == {
        "ifftn": 4, "irfftn": 4, "rfftn": 2, "fftn": 2}


def test_each_mala_proposal_takes_one_transform_to_the_grid(monkeypatch):
    # the proposal's potential, series value and gradient share one
    # _to_grid; the gradient adds one transform back through the drift
    calls = count_traced_ffts(monkeypatch)
    spec = GridSpec(16, 1.0)
    cfg = gibbs.GibbsSamplerConfig(2, 2, 1.0, 0.5, 12, 2, thin=2, acceptance_band=(0.0, 1.0))
    states = cfg.chain_length + 1  # the start and every proposal
    assert counts_of(calls, lambda: gibbs.sample_gibbs(spec, cfg, root_seed=3)) == dict.fromkeys(
        TO_GRID + TO_COEFFS, states)
