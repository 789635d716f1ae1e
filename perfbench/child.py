"""Measured calls of a ``sigma-wave`` subcommand in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/child.py SPEC.json`` with the
workload's work directory as its current directory.  It imports
``sigma_wave`` from the checkout's ``src``, runs ``sigma_wave.cli.main`` on the
generated argv and writes its measurements to the spec's ``result`` path:

* set-up ends when the subcommand's first unit of work can start: after the
  imports, the CLI's config parsing and validation, and the lru-cached
  tables the subcommand's first step would build;
* the subcommand then runs repeatedly, at the same inputs, for about the
  spec's ``budget_s`` (at least once; exactly once when traced; not at all
  when the spec is ``setup_only``); each repetition is timed;
* ``peak_rss_mb`` is the process's peak resident memory after the first
  repetition.

The output checks run after the measurements, in the same process, and so
does the listing of traced sites and table builders that no longer exist.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _prewarm(cfg: dict, tables) -> list:
    """Fill the program's cached per-config tables, as the first step would.

    The builders are private names; one a refactor removed is skipped and
    returned, so the run fails its ``sites_present`` check instead of moving
    the build into ``run_s`` unseen.
    """
    from sigma_wave import dynamics, grid, noise

    spec = grid.GridSpec(cfg["grid"]["n_grid"], cfg["grid"]["m"])
    dt, radius = cfg["dynamics"]["dt"], float(cfg["truncation"]["M"])
    args = {"_transition_tables": (noise, (spec, dt)),
            "_drift_tables": (dynamics, (spec, dt, 0.5)),
            "_half_lattice": (noise, (spec.n_grid, radius))}
    missing = []
    for name in tables:
        owner, call_args = args[name]
        builder = getattr(owner, name, None)
        if builder is None:
            missing.append(f"{owner.__name__}:{name}")
        else:
            builder(*call_args)
    return missing


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))

    import numpy
    import scipy
    from sigma_wave import cli

    source = Path(cli.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        print(f"sigma_wave imported from {source}, not from {root}/src", file=sys.stderr)
        return 3
    if spec.get("import_only"):
        return 0

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec.get("break"):
        import breaks
        breaks.apply(spec["break"])
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
        setup_span = tracer.open("setup")

    marks = {"run_s": []}
    command, help_text = cli.COMMANDS[workload.command]

    def measured(cfg, out_dir, threads):
        marks["cfg"] = cfg
        marks["missing_tables"] = _prewarm(cfg, workload.tables)
        if tracer is not None:
            tracer.close(setup_span)
        marks["ready"] = time.time()
        marks["ready_clock"] = time.perf_counter()
        if spec.get("setup_only"):
            return
        deadline = marks["ready_clock"] + spec["budget_s"]
        while True:
            if tracer is not None:
                run_span = tracer.open("run")
            start = time.perf_counter()
            try:
                command(cfg, out_dir, threads)
            finally:
                run_s = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(run_span)
            marks["run_s"].append(run_s)
            marks.setdefault("peak_rss_mb",
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            # stop when the next repetition would end more than half past the deadline
            if tracer is not None or time.perf_counter() + 0.5 * run_s > deadline:
                break

    cli.COMMANDS[workload.command] = (measured, help_text)
    error = None
    try:
        code = cli.main(spec["argv"])
    except Exception:  # a blow-up or crash fails every check of this call
        code, error = 1, traceback.format_exc()
    end = time.time()
    result = {
        "exit_code": code,
        "error": error,
        "setup_s": marks.get("ready", end) - spec["spawn_time"],
        "run_s": marks["run_s"],
        "peak_rss_mb": marks.get("peak_rss_mb"),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["run_self_s"] = dict(tracer.self_times(
            since=marks.get("ready_clock", float("inf"))))
        tracer.write_spans(spec["spans"])
    from tracer import missing_sites
    result["missing_sites"] = missing_sites() + marks.get("missing_tables", [])
    if code == 0 and not spec.get("setup_only"):
        try:
            result["checks"] = checks.run(spec["workload"], marks["cfg"],
                                          Path(marks["cfg"]["output"]["dir"]))
        except Exception:  # a check that crashes fails; the measurements stay
            result["error"] = traceback.format_exc()
    Path(spec["result"]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
