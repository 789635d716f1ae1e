"""Span tracer for traced benchmark runs.

Spans are recorded from outside the program: each call site listed in
``SITES`` is replaced by a wrapper at the name its caller looks up (a module
global such as ``sigma_wave.gibbs._draw_kick``, a class attribute such as
``NoiseStream.generator``, or ``numpy.fft.fft2`` by attribute).  A span has a
name (its layer), start, end and parent span; self time is its duration
minus the time covered by its child spans.  Spans stay in memory until the
run ends.

A site that no longer exists is skipped; every call of a run lists such
sites through ``missing_sites`` and fails its ``sites_present`` check, so a
rename shows as a failure, not as a layer that reads 0.  A change that
renames or replaces a site updates ``SITES`` with it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

# layer -> call sites "module:attribute[.attribute]"
SITES = {
    "fft": ["numpy.fft:fft2", "numpy.fft:ifft2", "numpy.fft:rfft2", "numpy.fft:irfft2",
            "numpy.fft:fftn", "numpy.fft:ifftn", "numpy.fft:rfftn", "numpy.fft:irfftn"],
    "noise.kick": ["sigma_wave.dynamics:_draw_kick", "sigma_wave.gibbs:_draw_kick",
                   "sigma_wave.noise:_draw_kick"],
    "noise.generator": ["sigma_wave.noise:NoiseStream.generator"],
    "noise.profile": ["sigma_wave.noise:_sample_profile", "sigma_wave.gibbs:_sample_profile"],
    "noise.renorm": ["sigma_wave.noise:RenormConstants.build"],
    "propagator.tables": ["sigma_wave.propagator:flow_entries",
                          "sigma_wave.propagator:duhamel_weights",
                          "sigma_wave.noise:flow_entries",
                          "sigma_wave.dynamics:flow_entries",
                          "sigma_wave.dynamics:duhamel_weights"],
    "dynamics.step": ["sigma_wave.dynamics:step_hlsm", "sigma_wave.dynamics:step_meanfield",
                      "sigma_wave.cli:step_renormalized_wave",
                      "sigma_wave.cli:step_linear_ensemble",
                      "sigma_wave.diagnostics:step_linear_ensemble"],
    "dynamics.drift": ["sigma_wave.dynamics:renormalized_drift",
                       "sigma_wave.gibbs:renormalized_drift",
                       "sigma_wave.dynamics:_ensemble_drift"],
    "wick.hermite": ["sigma_wave.gibbs:hermite", "sigma_wave.dynamics:hermite",
                     "sigma_wave.wick:hermite"],
    "gibbs.chain": ["sigma_wave.gibbs:sample_gibbs", "sigma_wave.cli:sample_gibbs",
                    "sigma_wave.cli:coupled_gibbs_gaussian_pair"],
    "gibbs.potential": ["sigma_wave.gibbs:gibbs_potential"],
    "gibbs.evolve": ["sigma_wave.gibbs:evolve_gibbs_samples"],
    "diagnostics.lln": ["sigma_wave.cli:lln_estimator", "sigma_wave.diagnostics:_sup_proxy"],
    "diagnostics.norms": ["sigma_wave.cli:difference_norms", "sigma_wave.diagnostics:zn_norm"],
    "diagnostics.energy": ["sigma_wave.cli:energy_en"],
    "grid.norm": ["sigma_wave.cli:sobolev_norm", "sigma_wave.diagnostics:sobolev_norm"],
    "grid.snapshot": ["sigma_wave.cli:save_field", "sigma_wave.cli:load_field"],
    "cli.config": ["sigma_wave.cli:load_config", "sigma_wave.cli:_validate"],
    "cli.output": ["sigma_wave.cli:write_csv", "sigma_wave.cli:write_manifest",
                   "sigma_wave.dynamics:TrajectoryRecord.to_csv",
                   "sigma_wave.noise:RenormConstants.to_csv",
                   "sigma_wave.gibbs:InvarianceReport.to_csv"],
    "cli.tasks": ["sigma_wave.cli:thread_map"],
}

# layers whose self time is reported as <layer>.self_s
TIMED = ["fft", "noise.kick", "noise.generator", "noise.profile", "noise.renorm",
         "propagator.tables", "dynamics.step", "dynamics.drift", "wick.hermite",
         "gibbs.chain", "gibbs.potential", "gibbs.evolve", "diagnostics.lln",
         "diagnostics.norms", "diagnostics.energy", "grid.snapshot", "cli.config",
         "cli.output"]
# layers whose call count is reported as <layer>.calls
CALLED = ["fft", "noise.kick", "noise.generator", "noise.profile", "propagator.tables",
          "dynamics.step", "dynamics.drift", "wick.hermite", "gibbs.potential", "grid.norm"]
# counts made by the hooks below, reported under their own names
COUNTED = ["fft.planes", "fft.bytes_computed", "gibbs.chain.iters", "grid.snapshot.bytes",
           "cli.tasks"]


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _lookup(site: str):
    """The object at ``site`` as stored on its owner, or None when it is gone."""
    try:
        owner, attr = _resolve(site)
        return owner, attr, inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None


def missing_sites() -> list:
    """Every site of ``SITES`` that no longer resolves."""
    return [site for sites in SITES.values() for site in sites if _lookup(site) is None]


class Tracer:
    """Wraps the call sites of ``SITES`` and records one span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (span_id, parent_id, name, start, end, self_s)
        self.counts = Counter()  # hook counts, keyed by metric name
        self.accepted = 0.0      # MALA moves, for gibbs.accept_ratio
        self.proposed = 0
        self._stack = [[0, 0.0]]  # open spans: [span_id, time covered by children]
        self._next_id = 1
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, 0.0])
        return name, time.perf_counter()

    def close(self, token) -> None:
        name, start = token
        end = time.perf_counter()
        span_id, covered = self._stack.pop()
        parent = self._stack[-1]
        parent[1] += end - start
        self.spans.append((span_id, parent[0], name, start, end, end - start - covered))

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for layer, sites in SITES.items():
            for site in sites:
                found = _lookup(site)
                if found is None:  # reported by missing_sites()
                    continue
                owner, attr, raw = found
                hook = _HOOKS.get(site.partition(":")[2].split(".")[-1])
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer, hook))
                elif layer == "cli.tasks":
                    wrapped = _count_tasks(self, raw)
                else:
                    wrapped = self._wrap(raw, layer, hook)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def self_times(self, since: float = float("-inf")) -> Counter:
        """Self seconds per span name, over spans that started at or after ``since``."""
        out = Counter()
        for _, _, name, start, _, self_s in self.spans:
            if start >= since:
                out[name] += self_s
        return out

    def metrics(self) -> dict:
        """Every per-layer metric; a layer that was never called reports 0."""
        calls = Counter(name for _, _, name, *_ in self.spans)
        self_s = self.self_times()
        out = {}
        for layer in CALLED:
            out[f"{layer}.calls"] = calls[layer]
        for layer in TIMED:
            out[f"{layer}.self_s"] = self_s[layer]
        for name in COUNTED:
            out[name] = self.counts[name]
        out["gibbs.accept_ratio"] = self.accepted / self.proposed if self.proposed else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start,end\n")
            for span_id, parent, name, start, end, _ in self.spans:
                fh.write(f"{self.run_id},{span_id},{parent},{name},{start!r},{end!r}\n")


def _fft_hook(tracer, args, result):
    # planes: slices of the input over its last two axes, the axes every caller
    # transforms; bytes: input plus output array sizes, so real FFTs read about half
    a = args[0]
    tracer.counts["fft.planes"] += a.size // max(1, a.shape[-2] * a.shape[-1])
    tracer.counts["fft.bytes_computed"] += a.nbytes + result.nbytes


def _generator_hook(tracer, args, result):
    if getattr(args[0].kind, "name", None) == "CHAIN":
        tracer.counts["gibbs.chain.iters"] += 1


def _sample_gibbs_hook(tracer, args, result):
    cfg = args[1]
    proposed = cfg.chain_length - cfg.burn_in
    tracer.accepted += result.accept_rate * proposed
    tracer.proposed += proposed


def _save_hook(tracer, args, result):
    tracer.counts["grid.snapshot.bytes"] += os.path.getsize(args[1])


def _load_hook(tracer, args, result):
    tracer.counts["grid.snapshot.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "fft2": _fft_hook,
    "ifft2": _fft_hook,
    "rfft2": _fft_hook,
    "irfft2": _fft_hook,
    "fftn": _fft_hook,
    "ifftn": _fft_hook,
    "rfftn": _fft_hook,
    "irfftn": _fft_hook,
    "generator": _generator_hook,
    "sample_gibbs": _sample_gibbs_hook,
    "save_field": _save_hook,
    "load_field": _load_hook,
}


def _count_tasks(tracer, fn):
    """``thread_map`` gets no span: only the number of items it maps is counted."""
    @functools.wraps(fn)
    def counted(func, items, *args, **kwargs):
        items = list(items)
        tracer.counts["cli.tasks"] += len(items)
        return fn(func, items, *args, **kwargs)
    return counted
