"""The work arrays of the hot loops: reused inside a scope, never returned,
released when the run that opened the scope ends."""

import tracemalloc
from dataclasses import replace

import numpy as np

from sigma_wave import cli, diagnostics, dynamics, gibbs, grid
from sigma_wave.dynamics import (HlsmState, MeanFieldState, _ensemble_drift, _meanfield_drift,
                                 _renormalized_drift, run_trajectory, step_hlsm,
                                 step_renormalized_wave)
from sigma_wave.grid import BallEnsemble, GridSpec, _to_coeffs, _to_grid, _work, _workspace
from sigma_wave.noise import NoiseKind, NoiseStream, RenormConstants
from sigma_wave.propagator import etd2_step

from test_dynamics import random_ensemble

SPEC = GridSpec(16, 1.0)


def held_buffers() -> list:
    return list(grid._scope.buffers.values()) if grid._scope.buffers is not None else []


def escaped(arrays) -> bool:
    return any(np.shares_memory(a, buf) for a in arrays for buf in held_buffers())


def hot_loop_outputs() -> dict:
    """Every output a step builds from work arrays, as a tuple keyed by what made it."""
    renorm = RenormConstants.build(1.0, 4, 0.1, 4)
    state = HlsmState.stationary(SPEC, 3, renorm, 6)
    state = replace(state, v=random_ensemble(SPEC, 3, 7, radius=state.v.radius))
    ens = random_ensemble(SPEC, 3, 9, radius=5.0)
    packed, radius = state.v.pos, state.v.radius
    streams = tuple(NoiseStream(8, j, NoiseKind.DRIVE) for j in range(3))
    tables = dynamics._ball_drift_tables(SPEC, 0.1, 0.5, ens.radius)
    out = {
        "to_coeffs": _to_coeffs(_to_grid(packed, 16, radius), radius),
        "to_grid": _to_grid(packed, 16, radius),
        "ensemble_drift": _ensemble_drift(packed, state.psi, 0.3, radius),
        "meanfield_drift": _meanfield_drift(packed, state.psi, radius),
        "renormalized_drift": _renormalized_drift(ens.pos, 16, 0.3, ens.radius),
        "given_grid_drift": _renormalized_drift(ens.pos, 16, 0.3, ens.radius,
                                                _to_grid(ens.pos, 16, ens.radius)),
        "etd2_step": etd2_step(ens.pos, ens.vel, lambda p, _: _renormalized_drift(
            p, 16, 0.3, ens.radius), tables),
    }
    moved = step_renormalized_wave(ens, streams, 0, 0.1, 0.3)
    out["step_renormalized_wave"] = (moved.pos, moved.vel)
    for system in (HlsmState, MeanFieldState):
        new = step_hlsm(system(state.v, state.psi, state.streams, 0.0, 0, renorm))
        out[f"step_hlsm {system.__name__}"] = (new.v.pos, new.v.vel, new.psi.pos, new.psi.vel)
    return {name: o if isinstance(o, tuple) else (o,) for name, o in out.items()}


def test_no_work_array_escapes_a_transform_a_drift_or_a_step():
    want = hot_loop_outputs()
    with _workspace():
        got = hot_loop_outputs()
        assert held_buffers()
        for name, out in got.items():
            assert not escaped(out), name
            # the scope changes where temporaries live, not one bit of a result
            assert all(a.tobytes() == b.tobytes() for a, b in zip(out, want[name])), name
        # a drift's result comes through the next drift call unchanged
        ens = random_ensemble(SPEC, 3, 11, radius=5.0)
        first = _renormalized_drift(ens.pos, 16, 0.3, ens.radius)
        kept = first.copy()
        _renormalized_drift(2.0 * ens.pos, 16, 0.3, ens.radius)
        assert first.tobytes() == kept.tobytes()


def test_work_buffers_live_as_long_as_the_outermost_scope():
    assert grid._scope.buffers is None
    a, b = _work((4, 4), np.float64, "slot"), _work((4, 4), np.float64, "slot")
    assert not np.shares_memory(a, b)  # outside a scope every call allocates fresh
    assert grid._scope.buffers is None
    with _workspace():
        outer = _work((8, 4), np.float64, "slot")
        with _workspace():
            inner = _work((2, 4), np.complex128, "slot")  # a smaller request, another dtype
            assert np.shares_memory(outer, inner)
            assert not np.shares_memory(inner, _work((2, 4), np.complex128, "other"))
        assert np.shares_memory(outer, _work((8, 4), np.float64, "slot"))
        grown = _work((16, 4), np.float64, "slot")
        assert not np.shares_memory(outer, grown)
        assert np.shares_memory(grown, _work((3,), np.float64, "slot"))
    assert grid._scope.buffers is None


def test_each_run_loop_opens_its_own_scope_and_releases_it(monkeypatch):
    scoped, work = [], dynamics._work

    def recording(*args):
        scoped.append(grid._scope.buffers is not None)
        return work(*args)

    monkeypatch.setattr(dynamics, "_work", recording)
    renorm = RenormConstants.build(1.0, 2, 0.1, 4)
    record = run_trajectory(HlsmState.zero(SPEC, 2, renorm, 3), 4, 2,
                            observe=lambda s: {"scoped": grid._scope.buffers is not None})
    assert list(record.series["scoped"]) == [True] * 3
    assert scoped and all(scoped) and grid._scope.buffers is None

    scoped.clear()
    cli.coupled_distance(SPEC, 2, 2, 0.3, 3, 5, 0.1, 2, 1, 0.9)
    assert scoped and all(scoped) and grid._scope.buffers is None

    # a thread_map worker's scope is its own, and ends with its slice
    scoped.clear()
    ens = random_ensemble(SPEC, 2, 9, truncation=2.0, radius=2.0)
    batch = BallEnsemble(SPEC, 2.0, np.stack([ens.pos] * 4), np.stack([ens.vel] * 4))
    left = []

    def slice_then_look(fn):
        def run(item):
            out = fn(item)
            left.append(grid._scope.buffers)
            return out
        return run

    gibbs.evolve_gibbs_samples(batch, 0.3, 0.1, 2, 5, slices=2,
                               map_fn=lambda fn, items: cli.thread_map(slice_then_look(fn),
                                                                       items, 2))
    assert scoped and all(scoped) and left == [None, None]
    assert grid._scope.buffers is None


def test_lln_estimator_runs_each_task_in_a_scope_and_leaves_none(monkeypatch):
    scoped, work = [], diagnostics._work

    def recording(*args):
        scoped.append(grid._scope.buffers is not None)
        return work(*args)

    monkeypatch.setattr(diagnostics, "_work", recording)
    diagnostics.lln_estimator(SPEC, diagnostics._LLN_KINDS, [2, 3], 2, 0.2, 2, 0.1, 5,
                              map_fn=lambda fn, items: cli.thread_map(fn, items, 2))
    assert scoped and all(scoped) and grid._scope.buffers is None


def test_sup_proxy_keeps_its_bits_in_a_scope_and_returns_no_work_array():
    z = np.random.default_rng(4).standard_normal((5,) + SPEC.shape())
    stacks = (z, z[:2], z[0])  # a larger request first, then smaller ones
    want = [np.asarray(diagnostics._sup_proxy(a, SPEC, -0.1)) for a in stacks]
    with _workspace():
        got = [np.asarray(diagnostics._sup_proxy(a, SPEC, -0.1)) for a in stacks]
        assert held_buffers() and not escaped(got)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_warm_hlsm_step_allocates_no_grid_temporaries():
    # bytes, not time: with warm work arrays a step allocates its packed
    # results and a few packed temporaries, not the grid stacks and half
    # spectra of its transforms (569,936 B at this size without the work
    # arrays, 295,288 B with them, against a packed v of 45,696 B)
    state = HlsmState.zero(GridSpec(32, 1.0), 8, RenormConstants.build(1.0, 4, 0.01, 4), 3,
                           dealias=True)
    with _workspace():
        state = step_hlsm(state)
        tracemalloc.start()
        try:
            state = step_hlsm(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * state.v.pos.nbytes
