"""sigma-wave benchmark: run one workload for a while and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  A run starts fresh interpreters
(``child.py``) in the order of its plan, so set-up is paid as a user's CLI
call pays it.  A ``run`` interpreter then repeats the workload's subcommand
at the same generated inputs for its share of ``--seconds``; a ``setup`` one
stops when set-up is done and only adds a ``setup_s`` sample.  With
``--trace 1`` untraced and traced interpreters alternate; a traced one runs
the subcommand once and gives the per-layer metrics, the untraced ones the
base of ``trace.overhead_frac``.

Metrics are medians over repetitions (``run_s``) or interpreters
(``setup_s``, ``peak_rss_mb``); every sample is in the result file.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable report goes to
standard error and the full record, with an environment stamp, to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import CALLED, COUNTED, TIMED  # noqa: E402
from workloads import WORKLOADS, program_seed, write_inputs  # noqa: E402

# interpreters of a run, in order; setup-only ones add setup_s samples cheaply
UNTRACED_PLAN = ("setup", "run", "setup", "run", "setup", "run", "setup")
TRACED_PLAN = ("run", "traced", "run", "traced")
SETUP_ALLOWANCE_S = 1.5  # taken off --seconds for each interpreter of the plan
RUN_LIMIT_S = 150      # a hung program is stopped, and no interpreter starts, after this
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{layer}.calls": "count" for layer in CALLED}
    units.update({f"{layer}.self_s": "s" for layer in TIMED})
    units.update({name: "bytes" if "bytes" in name else "count" for name in COUNTED})
    units["gibbs.accept_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def environment(root: Path) -> dict:
    """CPU, caches, interpreter and library versions, and the git commit."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "caches": caches, "python": platform.python_version(), **versions,
            "git": git_stamp(root)}


def git_stamp(root: Path) -> dict:
    """Commit and dirty flag, or nulls when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != root.resolve():
            return {"commit": None, "dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": commit, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SIGMA_WAVE_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts the calls of one run and keeps their results."""

    def __init__(self, root: Path, work: Path, workload: str, argv: list, breaks=None):
        self.root, self.work, self.workload, self.argv = root, work, workload, argv
        self.breaks = breaks
        self.calls = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def call(self, kind: str = "run", budget_s: float = 0.0) -> dict:
        """One interpreter: ``import`` (warm-up only), ``setup``, ``run`` or ``traced``."""
        trace, import_only = kind == "traced", kind == "import"
        index = len(self.calls)
        spec_path = self.work / f"call{index}.json"
        result_path = self.work / f"call{index}.result.json"
        spec = {"root": str(self.root), "workload": self.workload, "argv": self.argv,
                "trace": trace, "import_only": import_only,
                "setup_only": kind == "setup", "break": self.breaks,
                "budget_s": budget_s,
                "run_id": f"{self.workload}-{index}", "result": str(result_path),
                "spans": str(self.work / f"call{index}.spans.csv")}
        shutil.rmtree(self.work / "out", ignore_errors=True)
        spec["spawn_time"] = time.time()
        spec_path.write_text(json.dumps(spec))
        with open(self.work / f"call{index}.log", "w") as log:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    cwd=self.work, stdout=log, stderr=subprocess.STDOUT,
                                    env=child_env())
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:  # also on interrupt or SIGTERM: never leave the child running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if import_only:
            return {"exit_code": code}
        result = {"exit_code": code}
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        if result["exit_code"] != 0:
            result["log_tail"] = (self.work / f"call{index}.log").read_text()[-2000:]
        result["trace"] = trace
        result["setup_only"] = kind == "setup"
        self.calls.append(result)
        if kind != "setup":
            self._compare_outputs(result)
        return result

    def _compare_outputs(self, result: dict) -> None:
        """Reruns at one seed must write byte-identical outputs (README contract)."""
        out, ref = self.work / "out", self.work / "reference"
        if result["exit_code"] != 0 or not out.is_dir():
            return
        if not ref.exists():
            out.rename(ref)
            return
        names = sorted(p.name for p in out.iterdir())
        same = names == sorted(p.name for p in ref.iterdir()) and all(
            (out / n).read_bytes() == (ref / n).read_bytes() for n in names)
        result["rerun_identical"] = same
        shutil.rmtree(out)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def tally(workload: str, calls: list) -> tuple[int, int, dict]:
    """Checks attempted and failed over all calls, and failures by name."""
    attempted = failed = 0
    failures = {}

    def count(name, ok, detail):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures[name] = detail

    for call in calls:
        exited = f"call exited with {call['exit_code']}"
        missing = call.get("missing_sites")
        count("sites_present", call["exit_code"] == 0 and not missing,
              f"gone from the program: {missing}" if missing else exited)
        if call["setup_only"]:
            continue
        results = call.get("checks") or {}
        for name in checks.NAMES[workload]:
            count(name, call["exit_code"] == 0 and results.get(name, {}).get("ok", False),
                  results.get(name, {}).get("detail") or exited)
        if "rerun_identical" in call:
            count("rerun_identical", call["rerun_identical"],
                  "outputs differ from the first call")
    traced = [c["layers"] for c in calls if c["trace"] and "layers" in c]
    for layers in traced[1:]:
        moved = sorted(k for k in layers
                       if not k.endswith(".self_s") and layers[k] != traced[0][k])
        count("counts_repeat", not moved, f"counts differ between traced calls: {moved}")
    return attempted, failed, failures


def measure(runner: Runner, seconds: float, trace: bool) -> None:
    runner.call("import")  # compiles bytecode and warms the file cache
    plan = TRACED_PLAN if trace else UNTRACED_PLAN
    # a traced interpreter's one repetition takes about a run interpreter's share
    budget = max(0.0, (seconds - len(plan) * SETUP_ALLOWANCE_S)
                 / sum(kind != "setup" for kind in plan))
    for kind in plan:
        if not runner.expired():
            runner.call(kind, budget_s=budget)


def metrics_of(calls: list, trace: bool) -> dict:
    plain = [c for c in calls if not c["trace"]]
    if not trace:
        values = {"setup_s": median(c.get("setup_s") for c in plain),
                  "run_s": median(t for c in plain for t in c.get("run_s", [])),
                  "peak_rss_mb": median(c.get("peak_rss_mb") for c in plain)}
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    traced = [c for c in calls if c["trace"] and "layers" in c]
    out = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_frac":
            base = median(t for c in plain for t in c.get("run_s", []))
            value = median(c["run_s"][0] for c in traced) / base - 1.0 if base else 0.0
        elif name.endswith(".self_s"):
            value = median(c["layers"][name] for c in traced)
        else:  # repeats exactly across traced calls; tally() checks it
            value = traced[0]["layers"][name] if traced else 0
        out[name] = {"value": value, "unit": unit}
    return out


def layer_shares(calls: list) -> dict:
    """Median share of traced run_s spent in each layer's own code."""
    traced = [c for c in calls if c["trace"] and c.get("run_s")]
    names = sorted({n for c in traced for n in c.get("run_self_s", {})})
    return {n: median(c["run_self_s"].get(n, 0.0) / c["run_s"][0] for c in traced)
            for n in names}


def report(args, metrics, attempted, failed, failures, calls, shares) -> None:
    def say(text=""):
        print(text, file=sys.stderr)
    reps = sum(len(c.get("run_s", [])) for c in calls if not c["trace"])
    say(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"interpreters {len(calls)} ({sum(c['trace'] for c in calls)} traced, "
        f"{sum(c['setup_only'] for c in calls)} setup only), "
        f"{reps} untraced repetitions")
    for name, m in metrics.items():
        say(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    say(f"  {'failed_frac':28s} {failed / attempted if attempted else 1.0:.6g} "
        f"({failed} of {attempted} checks)")
    for name, detail in failures.items():
        say(f"    FAILED {name}: {detail}")
    if shares:
        say("  self-time share of traced run_s:")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            say(f"    {name:24s} {100 * share:6.2f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs Runner.call's cleanup

    root = Path.cwd()
    if not (root / "src" / "sigma_wave" / "cli.py").is_file():
        print(f"error: no sigma_wave sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg, cli_argv = write_inputs(args.workload, args.seed, work)

    runner = Runner(root, work, args.workload, cli_argv)
    measure(runner, args.seconds, bool(args.trace))
    calls = runner.calls
    attempted, failed, failures = tally(args.workload, calls)
    metrics = metrics_of(calls, bool(args.trace))
    shares = layer_shares(calls) if args.trace else {}
    report(args, metrics, attempted, failed, failures, calls, shares)

    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "program_seed": program_seed(args.workload, args.seed),
              "config": cfg, "argv": cli_argv, "environment": environment(root),
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, "layer_shares": shares, "calls": calls}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
