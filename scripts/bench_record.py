"""Write a change's benchmark record, ``BENCH_<n>.json``.

    python3 scripts/bench_record.py --number N --parent PARENT --change CHANGE \\
        --tier1-log tier1.log [--claim WORKLOAD:METRIC] [--title TEXT]

PARENT and CHANGE are the roots of two checkouts on which
``perfbench/run.py`` has run; their ``.perfbench_work/results/*.json``
records are the runs.  ``perfbench/run.py`` never clears that directory, so
empty it on both sides before a record's runs: a run left from an earlier
change would be paired with the new ones.  Each run carries the git commit
and dirty flag of the checkout it measured (``environment.git``); a side
whose runs carry more than one such stamp is refused with exit status 2 and
the stamps named.  A (workload, seed) measured
untraced on both sides is one pair.  The record holds every run, tagged with
its side and its place in the order the runs finished; per workload and
end-to-end metric, each side's median and quartiles over the pairs and the
number of pairs the change won, whether it regressed and whether the
parent's spread leaves it unresolved; the per-layer metrics of every traced
pair; the claim, when one is named; a machine stamp; and the
``--durations`` lines of the saved tier-1 log.  The rules follow.

A claimed gain holds when the change is better in at least nine tenths of
the pairs and the two medians differ by more than the parent's interquartile
range.  A metric has regressed when the change's median is worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json`` (a
fraction of the parent's median).  It is unresolved when the parent's
interquartile range is wider than that bound, again as a fraction of its
median, unless every change run is better than every parent run.  A change
that claims no gain is judged on these two fields.  After writing the record,
one line on stderr names each regressed or unresolved metric: its workload,
and the parent's interquartile range over its median against the bound.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
from importlib import metadata
from pathlib import Path

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
DURATION = re.compile(r"^\s*\d+(\.\d+)?s (call|setup|teardown)\s")
HOW = ("python3 perfbench/run.py --workload W --seed S --seconds 27 --trace T, run from the "
       "root of the parent checkout and of the change checkout on the same machine with the "
       "same perfbench code; run_index is the order in which the runs finished.")


def load_runs(root: Path, side: str) -> list:
    """Every result record under ``root``, with its side and finish time."""
    runs = []
    for path in sorted((root / ".perfbench_work" / "results").glob("*.json")):
        runs.append({"side": side, "finished": path.stat().st_mtime,
                     "record": json.loads(path.read_text())})
    return runs


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pairs_of(runs: list, trace: int) -> dict:
    """``{(workload, seed): {"parent": record, "change": record}}`` for pairs
    measured on both sides."""
    found = {}
    for run in runs:
        rec = run["record"]
        if rec["trace"] == trace:
            found.setdefault((rec["workload"], rec["seed"]), {})[run["side"]] = rec
    return {key: sides for key, sides in sorted(found.items()) if len(sides) == 2}


def metric_rules(change_root: Path) -> dict:
    """``{name: {"better": "lower" | "higher", "bound": fraction or None}}``."""
    path = change_root / "BENCHMARK.json"
    if not path.is_file():
        return {name: {"better": "lower", "bound": None} for name in END_TO_END}
    spec = json.loads(path.read_text())
    return {m["name"]: {"better": m["better"], "bound": m.get("bound")}
            for m in spec["end_to_end"] + spec.get("per_layer", [])}


def verdict(parent_vals: list, change_vals: list, sign: float, bound) -> dict:
    """``regressed`` and ``unresolved`` of one metric; ``sign`` is +1 when
    lower is better and -1 when higher is; both read None with no bound."""
    if bound is None:
        return {"regressed": None, "unresolved": None}
    parent, change = quartiles(parent_vals), quartiles(change_vals)
    worse = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    separated = max(sign * c for c in change_vals) < min(sign * p for p in parent_vals)
    return {"regressed": worse > bound * abs(parent["median"]),
            "unresolved": spread > bound * abs(parent["median"]) and not separated}


def summarize(pairs: dict, rules: dict) -> list:
    rows = []
    for workload in sorted({w for w, _ in pairs}):
        mine = {seed: sides for (w, seed), sides in pairs.items() if w == workload}
        for metric in END_TO_END:
            vals = {side: [mine[s][side]["metrics"][metric]["value"] for s in mine]
                    for side in ("parent", "change")}
            rule = rules.get(metric, {"better": "lower", "bound": None})
            sign = 1.0 if rule["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
            rows.append({
                "workload": workload, "metric": metric, "pairs": len(mine),
                "seeds": sorted(mine), "parent": parent, "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "change_better_pairs": wins,
                **verdict(vals["parent"], vals["change"], sign, rule["bound"]),
                "all_correct": all(sides[s]["failed"] == 0
                                   for sides in mine.values() for s in sides)})
    return rows


def flagged(summary: list, rules: dict) -> list:
    """One line per summary row that regressed or is unresolved."""
    lines = []
    for row in summary:
        flags = [name for name in ("regressed", "unresolved") if row[name]]
        if flags:
            parent = row["parent"]
            lines.append(f"{row['workload']} {row['metric']}: {' and '.join(flags)}; parent IQR "
                         f"{(parent['q3'] - parent['q1']) / abs(parent['median']):.1%} of its "
                         f"median against a bound of {rules[row['metric']]['bound']:.1%}, "
                         f"change/parent {row['change_over_parent']:.3f}")
    return lines


def judge(claim: str, summary: list) -> dict:
    workload, metric = claim.split(":")
    row = next((r for r in summary if (r["workload"], r["metric"]) == (workload, metric)), None)
    if row is None:
        return {"workload": workload, "metric": metric, "met": False, "why": "no pairs"}
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    gap = abs(row["change"]["median"] - row["parent"]["median"])
    wins = row["change_better_pairs"]
    return {"workload": workload, "metric": metric, "pairs": row["pairs"],
            "change_better_pairs": wins, "median_gap": gap, "parent_iqr": iqr,
            "rule": "change better in >= 9/10 of the pairs and medians apart by more "
                    "than the parent IQR",
            "met": wins >= 0.9 * row["pairs"] and gap > iqr and row["all_correct"]}


def traced(pairs: dict) -> dict:
    return {f"{w}@{seed}": {side: rec["metrics"] for side, rec in sides.items()}
            for (w, seed), sides in pairs.items()}


def machine() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def durations(log_path: Path) -> list:
    return [line.strip() for line in log_path.read_text().splitlines() if DURATION.match(line)]


def stamp(record: dict) -> str:
    """The checkout a run measured: its ``environment.git`` commit and dirty flag."""
    git = record.get("environment", {}).get("git") or {}
    return (git.get("commit") or "no commit") + (" (dirty)" if git.get("dirty") else "")


def build(number: int, parent: Path, change: Path, tier1_log: Path, claim=None,
          title: str = "") -> dict:
    runs = []
    for side, root in (("parent", parent), ("change", change)):
        mine = load_runs(root, side)
        found = sorted({stamp(run["record"]) for run in mine})
        if len(found) > 1:
            raise ValueError(f"the {side} runs under {root} measured {len(found)} checkouts "
                             f"({', '.join(found)}); empty its .perfbench_work/results and "
                             "run them again")
        runs += mine
    runs.sort(key=lambda run: run["finished"])
    summary = summarize(pairs_of(runs, 0), metric_rules(change))
    out = {"number": number, "change": title, "how": HOW, "machine": machine(),
           "summary": summary, "traced_metrics": traced(pairs_of(runs, 1)),
           "tier1_durations": durations(tier1_log),
           "runs": [{"side": run["side"], "run_index": i, "record": run["record"]}
                    for i, run in enumerate(runs)]}
    if claim:
        out["claimed"] = judge(claim, summary)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    parser.add_argument("--tier1-log", type=Path, required=True,
                        help="saved output of a tier-1 pytest run with --durations")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain")
    parser.add_argument("--title", default="", help="one line naming the change")
    parser.add_argument("--out", type=Path, help="default: BENCH_<N>.json here")
    args = parser.parse_args(argv)
    try:
        record = build(args.number, args.parent, args.change, args.tier1_log, args.claim,
                       args.title)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = args.out or Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}: {len(record['runs'])} runs, "
          f"{len(record['summary'])} summary rows", file=sys.stderr)
    for line in flagged(record["summary"], metric_rules(args.change)):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
