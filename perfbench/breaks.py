"""Deliberately broken layers, for the benchmark's self-test only.

Each break monkeypatches one layer of ``sigma_wave`` at the names its
callers look up, inside the child process that runs the workload.  A correct
program never runs with any of them; ``selftest.py`` uses them to show that
the output checks fail when a layer is wrong.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from sigma_wave import cli, diagnostics, dynamics, gibbs, grid, noise

KICK_SCALE = 3.0    # factor on every noise kick


def _patch(modules, name, make):
    for module in modules:
        setattr(module, name, make(getattr(module, name)))


def wick_off():
    """No Wick renormalization: alpha_M and sigma_M(t) read 0 wherever they are read."""
    def zero(m, M):
        return 0.0
    for module in (noise, cli, gibbs, diagnostics):
        module.alpha_m = zero
    build = noise.RenormConstants.build.__func__

    def build_zero(cls, m, M, dt, n_steps):
        rc = build(cls, m, M, dt, n_steps)
        return dataclasses.replace(rc, sigma=np.zeros_like(rc.sigma))
    noise.RenormConstants.build = classmethod(build_zero)


def kick_scale():
    """Every noise kick scaled by ``KICK_SCALE``."""
    def make(draw):
        @functools.wraps(draw)
        def scaled(*args, **kwargs):
            ex, ev = draw(*args, **kwargs)
            return KICK_SCALE * ex, KICK_SCALE * ev
        return scaled
    _patch((noise, dynamics, gibbs), "_draw_kick", make)


def drift_sign():
    """The interaction drift with its sign flipped (focusing instead of defocusing)."""
    def make(drift):
        @functools.wraps(drift)
        def flipped(*args, **kwargs):
            return -drift(*args, **kwargs)
        return flipped
    _patch((dynamics, gibbs), "renormalized_drift", make)
    _patch((dynamics,), "_ensemble_drift", make)


def _edit_lines(path, edit):
    """Rewrite a text file as ``edit`` of its list of lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines = edit(lines)
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _after_tables(edit):
    """Apply ``edit`` to the lines of every CSV table the CLI writes."""
    def wrap_path_first(write):
        @functools.wraps(write)
        def edited(path, *args, **kwargs):
            write(path, *args, **kwargs)
            _edit_lines(path, edit)
        return edited

    def wrap_method(write):
        @functools.wraps(write)
        def edited(self, path):
            write(self, path)
            _edit_lines(path, edit)
        return edited
    cli.write_csv = wrap_path_first(cli.write_csv)
    for cls in (dynamics.TrajectoryRecord, gibbs.InvarianceReport):
        cls.to_csv = wrap_method(cls.to_csv)


def rows_drop():
    """The output layer loses the last row of every table."""
    _after_tables(lambda lines: lines[:-1])


def cell_nan():
    """The output layer writes nan into the last cell of every table."""
    _after_tables(lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"])


def snapshot_grid():
    """Snapshots written on a grid of half the configured size."""
    save = cli.save_field

    @functools.wraps(save)
    def halved(f, path):
        half = grid.GridSpec(f.spec.n_grid // 2, f.spec.m)
        save(grid.SpectralField(half, f.coeffs[::2, ::2]), path)
    cli.save_field = halved


def noise_shared():
    """Streams keyed without their component: every component draws the same noise."""
    generator = noise.NoiseStream.generator

    def shared(self, step):
        return generator(dataclasses.replace(self, component=0), step)
    noise.NoiseStream.generator = shared


def noise_unkeyed():
    """Noise generators seeded from OS entropy instead of their counter key."""
    def generator(self, step):
        return np.random.default_rng()
    noise.NoiseStream.generator = generator


def kick_retry():
    """Each kick first makes 0 to 2 throwaway draws: a random amount of extra work."""
    rng = np.random.default_rng()

    def make(draw):
        @functools.wraps(draw)
        def retried(gen, *args, **kwargs):
            for _ in range(int(rng.integers(0, 3))):
                spare = noise.NoiseStream(0, 0, noise.NoiseKind.FIELD).generator(0)
                draw(spare, *args, **kwargs)
            return draw(gen, *args, **kwargs)
        return retried
    _patch((noise, dynamics, gibbs), "_draw_kick", make)


def site_gone():
    """A traced site removed, as a refactor would: ``cli.energy_en``, which
    only ``simulate-hlsm`` calls, so other subcommands still run."""
    del cli.energy_en


BREAKS = {
    "wick-off": wick_off,
    "kick-scale": kick_scale,
    "drift-sign": drift_sign,
    "rows-drop": rows_drop,
    "cell-nan": cell_nan,
    "snapshot-grid": snapshot_grid,
    "noise-shared": noise_shared,
    "noise-unkeyed": noise_unkeyed,
    "kick-retry": kick_retry,
    "site-gone": site_gone,
}


def apply(name: str) -> None:
    BREAKS[name]()
