"""``scripts/bench_record.py`` gathers the benchmark runs of a parent and a
change checkout into one record; fed fabricated result files, its medians,
pair counts, claim and duration lines are checked by hand."""

import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(root, workload, seed, trace, run_s, finished, failed=0, git=None):
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    metrics = {"setup_s": {"value": 1.0, "unit": "s"},
               "run_s": {"value": run_s, "unit": "s"},
               "peak_rss_mb": {"value": 150.0, "unit": "MB"}}
    if trace:
        metrics = {"fft.calls": {"value": 252, "unit": "count"}}
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    record = {"workload": workload, "seed": seed, "trace": trace,
              "metrics": metrics, "attempted": 5, "failed": failed}
    if git is not None:
        record["environment"] = {"git": git}
    path.write_text(json.dumps(record))
    os.utime(path, (finished, finished))


def test_record_of_fabricated_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, "lln-linear", 1, 0, 1.0, finished=100)
    write_result(change, "lln-linear", 1, 0, 0.5, finished=200)
    write_result(change, "lln-linear", 9, 0, 0.4, finished=300)  # no parent run: no pair
    write_result(parent, "lln-linear", 2, 1, 0.0, finished=400)
    write_result(change, "lln-linear", 2, 1, 0.0, finished=50)
    log = tmp_path / "tier1.log"
    log.write_text("header\n12.50s call     tests/test_a.py::test_x\n"
                   "0.01s setup    tests/test_a.py::test_y\n3 passed in 13.0s\n")
    out = tmp_path / "BENCH_3.json"
    args = ["--number", "3", "--parent", str(parent), "--change", str(change),
            "--tier1-log", str(log), "--claim", "lln-linear:run_s", "--out", str(out)]
    assert load().main(args) == 0
    record = json.loads(out.read_text())
    assert [(r["side"], r["record"]["seed"]) for r in record["runs"]] == [
        ("change", 2), ("parent", 1), ("change", 1), ("change", 9), ("parent", 2)]
    assert [r["run_index"] for r in record["runs"]] == [0, 1, 2, 3, 4]
    run_s = next(r for r in record["summary"] if r["metric"] == "run_s")
    assert run_s["pairs"] == 1 and run_s["seeds"] == [1]
    assert run_s["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert run_s["change"]["median"] == 0.5 and run_s["change_over_parent"] == 0.5
    assert run_s["change_better_pairs"] == 1 and run_s["all_correct"]
    setup = next(r for r in record["summary"] if r["metric"] == "setup_s")
    assert setup["change_better_pairs"] == 0  # a tie counts for neither side
    assert record["claimed"]["met"] is True
    assert record["traced_metrics"] == {"lln-linear@2": {
        "parent": {"fft.calls": {"value": 252, "unit": "count"}},
        "change": {"fft.calls": {"value": 252, "unit": "count"}}}}
    assert record["tier1_durations"] == ["12.50s call     tests/test_a.py::test_x",
                                         "0.01s setup    tests/test_a.py::test_y"]
    assert set(record["machine"]) >= {"python", "numpy", "scipy", "cpu_count"}


def test_claim_fails_when_the_change_loses_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(1.0, 0.5), (1.0, 1.1), (1.0, 0.6)]):
        write_result(parent, "coupled-rate", seed, 0, p, finished=10 * seed)
        write_result(change, "coupled-rate", seed, 0, c, finished=10 * seed + 5)
    record = load().build(4, parent, change, _empty_log(tmp_path), "coupled-rate:run_s")
    assert record["claimed"]["change_better_pairs"] == 2
    assert record["claimed"]["met"] is False


def _empty_log(tmp_path):
    log = tmp_path / "empty.log"
    log.write_text("")
    return log


def _bounded(root, bound=0.25):
    root.mkdir(parents=True, exist_ok=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": "lower", "bound": bound}
        for name in ("setup_s", "run_s", "peak_rss_mb")]}))


def test_a_median_worse_by_more_than_the_bound_regressed(tmp_path):
    # parent runs agree; the change is 30 % slower against a 25 % bound
    parent, change = tmp_path / "parent", tmp_path / "change"
    _bounded(change)
    for seed, (p, c) in enumerate([(1.0, 1.3), (1.0, 1.31), (1.0, 1.29)]):
        write_result(parent, "lln-linear", seed, 0, p, finished=10 * seed)
        write_result(change, "lln-linear", seed, 0, c, finished=10 * seed + 5)
    summary = load().build(5, parent, change, _empty_log(tmp_path))["summary"]
    run_s = next(r for r in summary if r["metric"] == "run_s")
    assert run_s["regressed"] is True and run_s["unresolved"] is False
    setup = next(r for r in summary if r["metric"] == "setup_s")
    assert setup["regressed"] is False and setup["unresolved"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path):
    # parent IQR 0.5 of its median 1.0 against a 25 % bound; the change
    # overlaps the parent's runs, so nothing can be told
    parent, change = tmp_path / "parent", tmp_path / "change"
    _bounded(change)
    for seed, (p, c) in enumerate([(0.5, 1.0), (1.0, 0.9), (1.5, 1.1)]):
        write_result(parent, "gibbs-invariance", seed, 0, p, finished=10 * seed)
        write_result(change, "gibbs-invariance", seed, 0, c, finished=10 * seed + 5)
    summary = load().build(6, parent, change, _empty_log(tmp_path))["summary"]
    run_s = next(r for r in summary if r["metric"] == "run_s")
    assert run_s["unresolved"] is True and run_s["regressed"] is False


def test_each_regressed_or_unresolved_metric_is_named_on_stderr(tmp_path, capsys):
    # lln-linear run_s is 30 % slower; gibbs-invariance run_s has a parent
    # IQR of 50 % of its median; nothing else is flagged
    parent, change = tmp_path / "parent", tmp_path / "change"
    _bounded(change)
    runs = {"lln-linear": [(1.0, 1.3), (1.0, 1.31), (1.0, 1.29)],
            "gibbs-invariance": [(0.5, 1.0), (1.0, 0.9), (1.5, 1.1)]}
    for workload, values in runs.items():
        for seed, (p, c) in enumerate(values):
            write_result(parent, workload, seed, 0, p, finished=10 * seed)
            write_result(change, workload, seed, 0, c, finished=10 * seed + 5)
    args = ["--number", "7", "--parent", str(parent), "--change", str(change),
            "--tier1-log", str(_empty_log(tmp_path)), "--out", str(tmp_path / "BENCH_7.json")]
    assert load().main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[1:] == [
        "gibbs-invariance run_s: unresolved; parent IQR 50.0% of its median against a "
        "bound of 25.0%, change/parent 1.000",
        "lln-linear run_s: regressed; parent IQR 0.0% of its median against a "
        "bound of 25.0%, change/parent 1.300"]


def test_a_side_whose_runs_measured_two_checkouts_is_refused(tmp_path, capsys):
    # a run left over from an earlier commit must not be paired with new ones
    parent, change = tmp_path / "parent", tmp_path / "change"
    clean, dirty = {"commit": "aaa", "dirty": False}, {"commit": "bbb", "dirty": True}
    write_result(parent, "lln-linear", 1, 0, 1.0, finished=10, git=clean)
    write_result(parent, "lln-linear", 2, 0, 1.0, finished=20,
                 git={"commit": "old", "dirty": False})
    write_result(change, "lln-linear", 1, 0, 1.0, finished=30, git=dirty)
    write_result(change, "lln-linear", 2, 0, 1.0, finished=40, git=dirty)
    out = tmp_path / "BENCH_5.json"
    args = ["--number", "5", "--parent", str(parent), "--change", str(change),
            "--tier1-log", str(_empty_log(tmp_path)), "--out", str(out)]
    assert load().main(args) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "parent runs" in err and "2 checkouts (aaa, old)" in err
    write_result(parent, "lln-linear", 2, 0, 1.0, finished=20, git=clean)
    assert load().main(args) == 0
    record = json.loads(out.read_text())
    assert next(r for r in record["summary"] if r["metric"] == "run_s")["pairs"] == 2
