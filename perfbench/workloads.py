"""The benchmark's workloads: one ``sigma-wave`` subcommand each, at a pinned
problem size, with inputs generated from the benchmark seed.  Why each one
was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.

``size`` is the problem size the workload is named for; ``length`` is run
length (chain lengths, horizons, repetitions), chosen so that one call of the
subcommand takes a few seconds on a 2-core box.  Every workload runs at
``--threads 1``, the single-threaded baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    command: str
    size: dict
    length: dict
    # the program's lru-cached tables its first step builds; see child._prewarm
    tables: tuple = ("_transition_tables", "_drift_tables", "_half_lattice")

    def config(self, program_seed: int) -> dict:
        cfg = {}
        for part in (self.size, self.length):
            for section, keys in part.items():
                cfg.setdefault(section, {}).update(keys)
        cfg.setdefault("experiment", {})["seed"] = program_seed
        cfg.setdefault("output", {})["dir"] = "out"
        return cfg


WORKLOADS = {
    "coupled-rate": Workload(
        command="convergence-rate",
        size={"grid": {"n_grid": 32}, "truncation": {"M": 7},
              "experiment": {"N_list": "32,64,128"},
              "gibbs": {"h": 0.25, "burnin": 0, "thin": 1},
              "dynamics": {"dt": 0.01, "stride": 5}},
        length={"gibbs": {"chain": 50}, "dynamics": {"T": 0.1}, "experiment": {"reps": 1}},
    ),
    "lln-linear": Workload(
        command="lln-decay",
        size={"grid": {"n_grid": 64}, "truncation": {"M": 8},
              "experiment": {"N_list": "8,32,128"}, "dynamics": {"dt": 0.1}},
        length={"dynamics": {"T": 0.5}, "experiment": {"reps": 2}},
        tables=("_transition_tables", "_half_lattice"),
    ),
    "gibbs-invariance": Workload(
        command="invariance-check",
        size={"grid": {"n_grid": 32}, "truncation": {"M": 4}, "dynamics": {"N": 4, "dt": 0.01},
              "gibbs": {"h": 0.3, "thin": 50}},
        length={"gibbs": {"chain": 2500, "burnin": 500}, "dynamics": {"T": 0.2}},
    ),
    "hlsm-trajectory": Workload(
        command="simulate-hlsm",
        size={"grid": {"n_grid": 64}, "truncation": {"M": 8},
              "dynamics": {"N": 64, "dt": 0.01, "stride": 10, "dealias": "true",
                           "data": "zero"},
              "output": {"formats": "csv,fields"}},
        length={"dynamics": {"T": 0.3}},
    ),
}


def program_seed(workload: str, seed: int) -> int:
    """The program's ``[experiment] seed``: a fixed function of workload and seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def write_inputs(workload: str, seed: int, directory: Path) -> tuple[dict, list]:
    """Write the workload's INI into ``directory``; return its config and argv."""
    w = WORKLOADS[workload]
    cfg = w.config(program_seed(workload, seed))
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    (directory / "run.ini").write_text("\n".join(lines) + "\n")
    return cfg, [w.command, "--config", "run.ini", "--threads", "1"]
