"""Self-test of the benchmark's output checks and exact counts.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes a few minutes.  At benchmark seed
``SEED`` it asserts that

* the unbroken program passes every check of every workload, and two traced
  calls at one seed give identical counts (``counts_repeat``) and outputs
  (``rerun_identical``);
* each break in ``breaks.py`` makes the checks listed for it in ``EXPECT``
  fail;
* every check of every workload, and ``sites_present``, is in ``EXPECT`` for
  at least one break.

Exit status 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import Runner, tally  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEED = 1
LLN_SLOPES = {f"slope.{kind}" for kind in checks.LLN_KINDS}

# break -> workload -> checks that must fail
EXPECT = {
    "wick-off": {"coupled-rate": {"slope"}, "lln-linear": {"slope.wick_square_avg"}},
    "noise-shared": {"lln-linear": LLN_SLOPES, "hlsm-trajectory": {"energy"}},
    "kick-scale": {"gibbs-invariance": {"ks_p", "mean_shift_p"},
                   "hlsm-trajectory": {"energy"}},
    "drift-sign": {"coupled-rate": set(checks.NAMES["coupled-rate"])},
    "rows-drop": {w: {"tables"} for w in WORKLOADS},
    "cell-nan": {w: {"finite"} for w in WORKLOADS},
    "snapshot-grid": {"hlsm-trajectory": {"snapshots"}},
    "noise-unkeyed": {"lln-linear": {"rerun_identical"}},
    "kick-retry": {"lln-linear": {"counts_repeat"}},
    "site-gone": {"lln-linear": {"sites_present"}},
}
RERUN_CHECKS = {"rerun_identical", "counts_repeat"}


def run_calls(root: Path, workload: str, brk, traced: int, plain: int):
    work = root / ".perfbench_work" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _, argv = write_inputs(workload, SEED, work)
    runner = Runner(root, work, workload, argv, breaks=brk)
    for kind in ["run"] * plain + ["traced"] * traced:
        runner.call(kind)
    return tally(workload, runner.calls)


def main() -> int:
    root = Path.cwd()
    problems = []

    for workload in sorted(WORKLOADS):
        covered = {name for per in EXPECT.values() for name in per.get(workload, ())}
        missing = set(checks.NAMES[workload]) - covered
        if missing:
            problems.append(f"{workload}: no break trips {sorted(missing)}")
    tripped = {name for per in EXPECT.values() for names in per.values() for name in names}
    if "sites_present" not in tripped:
        problems.append("no break trips sites_present")

    for workload in sorted(WORKLOADS):
        _, failed, failures = run_calls(root, workload, None, traced=2, plain=0)
        status = "ok" if failed == 0 else f"FAILED {failures}"
        print(f"unbroken      {workload:18s} {status}", flush=True)
        if failed:
            problems.append(f"unbroken {workload}: {failures}")

    for brk, per_workload in EXPECT.items():
        for workload, expected in per_workload.items():
            reruns = expected & RERUN_CHECKS
            _, _, failures = run_calls(root, workload, brk,
                                       traced=2 if "counts_repeat" in reruns else 0,
                                       plain=2 if "rerun_identical" in reruns else
                                       (0 if reruns else 1))
            missed = sorted(expected - set(failures))
            print(f"{brk:13s} {workload:18s} failed {sorted(failures)}"
                  + (f"  MISSED {missed}" if missed else ""), flush=True)
            if missed:
                problems.append(f"{brk} on {workload}: {missed} did not fail")

    for problem in problems:
        print("PROBLEM:", problem, file=sys.stderr)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
