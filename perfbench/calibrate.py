"""Calibrate the statistical windows of ``checks.py`` on many seeds.

    python3 perfbench/calibrate.py

Run from the root of a checkout; it takes a few minutes.  It makes one
untraced call of each workload for each of ``SEEDS``, collects the value
behind every windowed check and every p-value floor check, and writes
``perfbench/calibration.json``: the values, their mean and standard
deviation and, for a windowed check, the window ``checks.py`` uses, the mean
plus or minus ``WIDTH_SD`` standard deviations rounded outward.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import Runner, environment  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEEDS = range(1, 13)
WIDTH_SD = 5.0


def main() -> int:
    root = Path.cwd()
    values = {}
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            work = root / ".perfbench_work" / f"calibrate-{workload}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            _, argv_cli = write_inputs(workload, seed, work)
            result = Runner(root, work, workload, argv_cli).call()
            if result["exit_code"] != 0:
                print(f"{workload} seed {seed}: exit {result['exit_code']}", file=sys.stderr)
                return 1
            for name, res in result["checks"].items():
                if name in checks.WINDOWED | checks.FLOORED:
                    values.setdefault(workload, {}).setdefault(name, []).append(res["value"])
            print(workload, seed, {k: v["value"] for k, v in result["checks"].items()},
                  flush=True)

    summary = {}
    for workload, per_check in values.items():
        for name, vals in per_check.items():
            mean, sd = statistics.mean(vals), statistics.stdev(vals)
            window = [math.floor((mean - WIDTH_SD * sd) * 100) / 100,
                      math.ceil((mean + WIDTH_SD * sd) * 100) / 100] \
                if name in checks.WINDOWED else None
            summary.setdefault(workload, {})[name] = {
                "values": vals, "mean": mean, "sd": sd, "window": window}
    record = {"seeds": list(SEEDS), "environment": environment(root), "checks": summary}
    (HERE / "calibration.json").write_text(json.dumps(record, indent=1) + "\n")
    for workload, per_check in summary.items():
        for name, c in per_check.items():
            print(f"{workload:18s} {name:26s} mean {c['mean']:.4g} sd {c['sd']:.3g} "
                  f"window {c['window']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
