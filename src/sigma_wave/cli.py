"""Command line front end for the simulation and sampling experiments.

Every subcommand reads one INI config, resolves it against the defaults
below (unknown sections or keys are hard errors), and writes its outputs
into the configured directory together with ``manifest.json`` echoing the
resolved configuration and its sha256 hash.  All randomness derives from
the single configured seed, workers are only ever mapped over independent
seed-indexed tasks in submission order, and manifests carry no timestamps,
so a rerun with the same config and seed is byte-identical and the thread
count cannot change any result.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (_LLN_KINDS, _mean_row, commutator_defect, difference_norms,
                          energy_en, fit_rate, lln_estimator)
from .dynamics import (BlowupError, HlsmState, MeanFieldState, _kick_pair, _step_count,
                       run_trajectory, step_linear_ensemble, step_renormalized_wave)
from .gibbs import (GibbsSamplerConfig, coupled_gibbs_gaussian_pair,
                    gibbs_vs_gaussian_covariance, invariance_check, sample_gibbs)
from .grid import (BallEnsemble, GridSpec, SpectralField, _require_ball, _sobolev_norms,
                   _to_grid, ball_mask, hermitian_defect, load_field, rms, save_field,
                   write_csv)
from .grid import sobolev_norm  # noqa: F401  (unused; a traced site of perfbench/tracer.py)
from .noise import NoiseKind, NoiseStream, RenormConstants, alpha_m

THREADS_ENV = "SIGMA_WAVE_THREADS"

# Resolved-config schema: every key, its type, and its default.  The help
# epilog and the coercion table are generated from this single source.
DEFAULTS = {
    "grid": {"n_grid": 32, "m": 1.0},
    "truncation": {"M": 4},
    "dynamics": {"N": 4, "R": 8, "dt": 0.01, "T": 1.0, "stride": 10,
                 "dealias": True, "data": "zero", "data_file": ""},
    "gibbs": {"h": 0.3, "chain": 2000, "burnin": 500, "thin": 10},
    "experiment": {"N_list": [4, 8, 16], "reps": 4, "s": 0.9, "eps": 0.1, "seed": 0},
    "output": {"dir": "out", "formats": ["csv"]},
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


class ConfigError(ValueError):
    """Configuration problem the user must fix; reported without a traceback."""


def _coerce(section: str, key: str, text: str, default):
    where = f"[{section}] {key}"
    text = text.strip()
    try:
        if isinstance(default, bool):
            if text.lower() not in _BOOL_WORDS:
                raise ValueError(f"{where}: not a boolean: {text!r}")
            return _BOOL_WORDS[text.lower()]
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, list):
            items = [p.strip() for p in text.split(",") if p.strip()]
            if default and isinstance(default[0], int):
                return [int(p) for p in items]
            return items
        return text
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def load_config(path=None) -> dict:
    """Defaults overlaid with the INI file; unknown keys are hard errors."""
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from None
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            cfg[section][key] = _coerce(section, key, text, DEFAULTS[section][key])
    return cfg


def _validate(cfg: dict) -> None:
    """Check ``[truncation] M``, which every command reads, and the seed and
    formats, which belong to the run and go into every manifest.  Each other
    rule is checked by the code that reads its value, and only there."""
    M, seed = cfg["truncation"]["M"], cfg["experiment"]["seed"]
    if M < 0:
        raise ConfigError(f"[truncation] M must be >= 0, got {M}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"[experiment] seed must fit in 64 bits, got {seed}")
    bad = [f for f in cfg["output"]["formats"] if f not in ("csv", "fields")]
    if bad:
        raise ConfigError(f"[output] unknown formats {bad}; choose from csv, fields")


def _sweep(cfg: dict) -> tuple:
    """``(N_list, reps)`` of a command that sweeps ``[experiment] N_list``."""
    N_list, reps = cfg["experiment"]["N_list"], cfg["experiment"]["reps"]
    if not N_list or min(N_list) < 1:
        raise ConfigError(f"[experiment] N_list needs entries, all >= 1, got {N_list}")
    if reps < 1:
        raise ConfigError(f"[experiment] reps must be >= 1, got {reps}")
    return N_list, reps


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON form; any key flip changes the digest."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: dict) -> None:
    manifest = {"command": command, "version": __version__,
                "config": cfg, "config_hash": config_hash(cfg)}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def thread_map(fn, items, threads: int) -> list:
    """Order-preserving map over independent tasks.

    Each task owns its seeds, the reduction follows submission order, and
    nothing is shared between workers, so the result is the same for any
    thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _ensemble_from_files(spec: GridSpec, n: int, directory: str, radius: float) -> BallEnsemble:
    """The snapshot pairs in ``directory``, packed on the ball ``|n| <= radius``
    that the residual evolves on; data off that ball raise."""
    root = Path(directory)
    ens, off_ball = BallEnsemble.zeros(spec, radius, n), ~ball_mask(spec, radius)
    for j in range(n):
        pos_path = root / f"field_u{j:03d}.sgwv"
        vel_path = root / f"field_du{j:03d}.sgwv"
        if not pos_path.exists() or not vel_path.exists():
            raise ConfigError(f"data_file {directory}: missing snapshots for component {j}")
        for path, dest in ((pos_path, ens.pos), (vel_path, ens.vel)):
            field = load_field(path, spec.m)
            if field.spec.n_grid != spec.n_grid:
                raise ConfigError(f"{path}: snapshot grid {field.spec.n_grid} != "
                                  f"configured {spec.n_grid}")
            if not np.all(np.isfinite(field.coeffs)):
                raise ConfigError(f"{path}: non-finite coefficients")
            if hermitian_defect(field.coeffs) > 1e-12 * np.max(np.abs(field.coeffs)):
                raise ConfigError(f"{path}: coefficients are not the spectrum of a real field")
            if np.any(field.coeffs[off_ball]):
                raise ConfigError(f"{path}: non-zero coefficients outside the dealias ball "
                                  f"|n| <= {radius:g} that the residual evolves on; "
                                  "set dealias = false to keep every mode")
            dest[j] = field.coeffs.reshape(-1)[ens.index]
    return ens


def _write_field_snapshots(out_dir: Path, ens: BallEnsemble) -> None:
    pos, vel = ens.full()
    for j in range(len(ens)):
        save_field(SpectralField(ens.spec, pos[j]), out_dir / f"field_u{j:03d}.sgwv")
        save_field(SpectralField(ens.spec, vel[j]), out_dir / f"field_du{j:03d}.sgwv")


def _write_fit(path: Path, rows) -> str:
    """Fit the rows whose two leading values are positive, if three or more; return the rate."""
    points = [(x, y) for x, y, *_ in (row.values() for row in rows) if x > 0 and y > 0]
    if len(points) < 3:
        return ""
    fit = fit_rate(points)
    write_csv(path, "x,y", list(zip(fit.x, fit.y)))
    return f": rate = {fit.slope:.4f} +/- {fit.slope_se:.4f}"


def _run_observables(m: float):
    """The ``observe`` hook of a trajectory: every column of one recording
    node, read from packed stacks and the combined ensemble u = psi + v,
    which is built once per node and let go when the row is made."""
    def observe(state) -> dict:
        u = state.combined()
        n_grid, radius = u.spec.n_grid, u.radius
        ug = _to_grid(u.pos[0], n_grid, radius)
        return {
            "v_h1": float(rms(_sobolev_norms(state.v.pos, n_grid, radius, 1.0))),
            "vdot_l2": float(rms(_sobolev_norms(state.v.vel, n_grid, radius, 0.0))),
            "u1_wick_int": float(np.mean(ug * ug) - state.renorm.sigma_at(state.step)),
            "energy_en": energy_en(u, m),
        }

    return observe


def _simulate(cfg: dict, out_dir: Path, meanfield: bool) -> None:
    g, d = cfg["grid"], cfg["dynamics"]
    cls = MeanFieldState if meanfield else HlsmState
    starts = {"zero": cls.zero, "gaussian": cls.stationary, "file": cls.zero}
    if d["data"] not in starts or d["data"] == "file" and not d["data_file"]:
        raise ConfigError("[dynamics] data must be zero, gaussian or file (which requires "
                          f"data_file), got {d['data']!r}")
    spec = GridSpec(g["n_grid"], g["m"])
    M, seed = cfg["truncation"]["M"], cfg["experiment"]["seed"]
    # with dealias on, the state's own check keeps the noise ball inside the 2/3-rule ball
    _require_ball(spec, M, "wick")
    n_steps = _step_count(d["T"], d["dt"], d["stride"])
    n = d["R"] if meanfield else d["N"]
    rc = RenormConstants.build(g["m"], M, d["dt"], n_steps)
    state = starts[d["data"]](spec, n, rc, seed, d["dealias"])
    if d["data"] == "file":
        state = replace(state, v=_ensemble_from_files(spec, n, d["data_file"], state.v.radius))
    record = run_trajectory(state, n_steps, d["stride"], observe=_run_observables(g["m"]))
    record.to_csv(out_dir / "trajectory.csv")
    print(f"wrote {out_dir / 'trajectory.csv'} ({len(record.times)} nodes)")
    if "fields" in cfg["output"]["formats"]:
        _write_field_snapshots(out_dir, record.final.combined())
        print(f"wrote {2 * n} field snapshots to {out_dir}")


def cmd_renorm_table(cfg: dict, out_dir: Path, threads: int) -> None:
    g, d = cfg["grid"], cfg["dynamics"]
    n_steps = _step_count(d["T"], d["dt"])
    rc = RenormConstants.build(g["m"], cfg["truncation"]["M"], d["dt"], n_steps)
    rc.to_csv(out_dir / "renorm.csv")
    print(f"wrote {out_dir / 'renorm.csv'}: sigma_M(T) = {rc.sigma[-1]:.6g}, "
          f"alpha_M = {rc.alpha:.6g}")


def cmd_simulate_hlsm(cfg: dict, out_dir: Path, threads: int) -> None:
    _simulate(cfg, out_dir, meanfield=False)


def cmd_simulate_meanfield(cfg: dict, out_dir: Path, threads: int) -> None:
    _simulate(cfg, out_dir, meanfield=True)


def coupled_distance(spec: GridSpec, n_components: int, truncation: int, step_size: float,
                     iterations: int, root: int, dt: float, n_steps: int, stride: int,
                     s: float) -> float:
    """C_T script-H^s distance of one coupled (interacting, free) run, component 1.

    The (Gibbs, Gaussian) data pair that ``coupled_gibbs_gaussian_pair`` draws
    from the next five values starts the interacting renormalized wave and the
    free wave, both packed on the noise ball; each step's kicks are drawn once
    and passed to both, and the two are compared every ``stride`` steps.
    """
    a, b = coupled_gibbs_gaussian_pair(spec, n_components, truncation, step_size, iterations, root)
    streams = tuple(NoiseStream(root, j, NoiseKind.DRIVE) for j in range(n_components))
    alpha = alpha_m(spec.m, truncation)
    states_n, states_l = [a], [b]
    for k in range(n_steps):
        kick = _kick_pair((len(streams),), streams, k, spec, dt, b.radius)
        a = step_renormalized_wave(a, streams, k, dt, alpha, kick)
        b = step_linear_ensemble(b, streams, k, dt, kick)
        if (k + 1) % stride == 0:
            states_n.append(a)
            states_l.append(b)
    return difference_norms(states_n, states_l, s, 0)[0]


def cmd_convergence_rate(cfg: dict, out_dir: Path, threads: int) -> None:
    g, ex, d, gb = cfg["grid"], cfg["experiment"], cfg["dynamics"], cfg["gibbs"]
    spec, M = GridSpec(g["n_grid"], g["m"]), cfg["truncation"]["M"]
    _require_ball(spec, M, "exact")
    N_list, reps = _sweep(cfg)
    n_steps = _step_count(d["T"], d["dt"], d["stride"])

    def one(task):
        n, rep = task
        return coupled_distance(spec, n, M, gb["h"], gb["chain"], ex["seed"] + 7919 * rep,
                                d["dt"], n_steps, d["stride"], ex["s"])

    tasks = [(n, rep) for n in N_list for rep in range(reps)]
    norms = np.asarray(thread_map(one, tasks, threads)).reshape(len(N_list), reps)
    rows = [_mean_row(n, norms[i]) for i, n in enumerate(N_list)]
    write_csv(out_dir / "convergence.csv", "N,mean_norm,se", rows)
    print(f"wrote {out_dir / 'convergence.csv'}" + _write_fit(out_dir / "fit.csv", rows))


def cmd_lln_decay(cfg: dict, out_dir: Path, threads: int) -> None:
    g, ex, d = cfg["grid"], cfg["experiment"], cfg["dynamics"]
    spec = GridSpec(g["n_grid"], g["m"])
    N_list, reps = _sweep(cfg)
    tables = lln_estimator(spec, _LLN_KINDS, N_list, cfg["truncation"]["M"],
                           d["T"], reps, ex["eps"], ex["seed"], dt=d["dt"],
                           map_fn=lambda fn, items: thread_map(fn, items, threads))
    for kind, rows in tables.items():
        write_csv(out_dir / f"lln_{kind}.csv", "N,mean_norm,se", rows)
        print(f"wrote {out_dir / f'lln_{kind}.csv'}" + _write_fit(out_dir / f"fit_{kind}.csv", rows))


def _gibbs_config(cfg: dict, n_components: int) -> GibbsSamplerConfig:
    gb = cfg["gibbs"]
    return GibbsSamplerConfig(n_components, cfg["truncation"]["M"], gb["h"], gb["chain"],
                              gb["burnin"], thin=gb["thin"])


def cmd_sample_gibbs(cfg: dict, out_dir: Path, threads: int) -> None:
    spec = GridSpec(cfg["grid"]["n_grid"], cfg["grid"]["m"])
    _require_ball(spec, cfg["truncation"]["M"], "exact")
    samples = sample_gibbs(spec, _gibbs_config(cfg, cfg["dynamics"]["N"]),
                           cfg["experiment"]["seed"])
    write_csv(out_dir / "gibbs_chain.csv", "iter,wick_square_int",
              [(i, v) for i, v in enumerate(samples.series)])
    M = cfg["truncation"]["M"]
    # the thinned draws are correlated: scale the SE of independent draws
    se_factor = np.sqrt(max(samples.iact / cfg["gibbs"]["thin"], 1.0))
    modes = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    rows = []
    for mode in modes:
        if mode[0] ** 2 + mode[1] ** 2 > M * M:
            continue
        r = gibbs_vs_gaussian_covariance(samples, 0, mode)
        rows.append({"n1": r["mode"][0], "n2": r["mode"][1], "variance": r["variance"],
                     "se": r["se"] * se_factor, "gaussian_variance": r["gaussian_variance"]})
    write_csv(out_dir / "gibbs_modes.csv", "n1,n2,variance,se,gaussian_variance", rows)
    write_csv(out_dir / "gibbs_stats.csv", "accept_rate,iact,n_samples",
              [(samples.accept_rate, samples.iact, len(samples))])
    print(f"wrote gibbs_chain.csv, gibbs_modes.csv, gibbs_stats.csv to {out_dir}; "
          f"acceptance = {samples.accept_rate:.3f}, iact = {samples.iact:.1f}")
    if "fields" in cfg["output"]["formats"]:
        _write_field_snapshots(out_dir, samples.draws[-1])
        print(f"wrote final-sample field snapshots to {out_dir}")


def cmd_invariance_check(cfg: dict, out_dir: Path, threads: int) -> None:
    spec = GridSpec(cfg["grid"]["n_grid"], cfg["grid"]["m"])
    _require_ball(spec, cfg["truncation"]["M"], "exact")
    d = cfg["dynamics"]
    report = invariance_check(spec, _gibbs_config(cfg, d["N"]), cfg["experiment"]["seed"],
                              d["T"], d["dt"], slices=threads,
                              map_fn=lambda fn, items: thread_map(fn, items, threads))
    report.to_csv(out_dir / "invariance.csv")
    worst = min(row["p_value"] for row in report.rows)
    print(f"wrote {out_dir / 'invariance.csv'}; smallest KS p-value = {worst:.4f}")


def cmd_commutator(cfg: dict, out_dir: Path, threads: int) -> None:
    g, ex = cfg["grid"], cfg["experiment"]
    spec = GridSpec(g["n_grid"], g["m"])
    rows = commutator_defect(spec, ex["s"], *_sweep(cfg), ex["seed"],
                             float(cfg["truncation"]["M"]))
    write_csv(out_dir / "commutator.csv", "M,defect_max", rows)
    print(f"wrote {out_dir / 'commutator.csv'}" + _write_fit(out_dir / "fit.csv", rows))


COMMANDS = {
    "renorm-table": (cmd_renorm_table, "tabulate sigma_M(t) and alpha_M on the step grid"),
    "simulate-hlsm": (cmd_simulate_hlsm, "integrate the N-component system from configured data"),
    "simulate-meanfield": (cmd_simulate_meanfield, "integrate the limiting replica system"),
    "convergence-rate": (cmd_convergence_rate, "coupled N-vs-limit distance over N_list with a rate fit"),
    "lln-decay": (cmd_lln_decay, "averaged Wick estimator norms over N_list with rate fits"),
    "sample-gibbs": (cmd_sample_gibbs, "MALA chain for the truncated Gibbs ensemble "
                     "(one chain, so one thread)"),
    "invariance-check": (cmd_invariance_check, "evolve Gibbs samples and compare observable laws"),
    "commutator": (cmd_commutator, "smoothing-operator commutator defect over a threshold sweep"),
}


def _epilog() -> str:
    lines = ["configuration keys (INI file, all optional):"]
    for section, keys in DEFAULTS.items():
        parts = []
        for key, default in keys.items():
            if isinstance(default, bool):
                kind, shown = "bool", str(default).lower()
            elif isinstance(default, int):
                kind, shown = "int", str(default)
            elif isinstance(default, float):
                kind, shown = "float", str(default)
            elif isinstance(default, list):
                kind = "list"
                shown = ",".join(str(v) for v in default) or "(empty)"
            else:
                kind, shown = "str", default or "(empty)"
            parts.append(f"{key} ({kind}, default {shown})")
        lines.append(f"  [{section}]  " + "; ".join(parts))
    lines.append(f"threads come from --threads or ${THREADS_ENV}; convergence-rate, "
                 "lln-decay and the evolution of invariance-check use them, sample-gibbs "
                 "is one chain on one thread, and results do not depend on them")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-wave",
        description="stochastic damped wave experiments on the 2D torus",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_epilog(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="overrides [experiment] seed")
        p.add_argument("--out", metavar="DIR", help="overrides [output] dir")
        p.add_argument("--threads", type=int, metavar="K",
                       help=f"worker threads (default ${THREADS_ENV} or 1)")
    return parser


def _resolve_threads(flag) -> int:
    if flag is None:
        text = os.environ.get(THREADS_ENV, "1")
        try:
            flag = int(text)
        except ValueError:
            raise ConfigError(f"${THREADS_ENV} must be an integer, got {text!r}") from None
    if flag < 1:
        raise ConfigError(f"thread count must be >= 1, got {flag}")
    return flag


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["experiment"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["dir"] = args.out
        _validate(cfg)
        threads = _resolve_threads(args.threads)
        out_dir = Path(cfg["output"]["dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command][0](cfg, out_dir, threads)
        # after the command, so a config it rejects leaves no manifest behind
        write_manifest(out_dir, args.command, cfg)
    except (ConfigError, ValueError, BlowupError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
