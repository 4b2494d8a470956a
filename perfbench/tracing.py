"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``mlmc_mvsde`` module with a wrapper that records one span per call
(name, parent span, start, end) and the call's work counts. Wrapping each
binding, not one module's, keeps the counts exact when a function is
imported under the same name elsewhere. A traced function that no longer
exists is reported as absent. Spans are kept in memory; self time (a span's
duration minus the time its child spans cover) is computed from them after
the run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "mlmc_mvsde"

#: layer -> work counts recorded besides ``calls``
LAYERS = {
    "rng.stream": (),
    "rng.fill": ("draws",),
    "em_engine.em_step": ("particle_steps",),
    "measure.cloud": ("rows",),
    "model.drift": (),
    "model.diffusion": (),
    "measure.sorted_mean": ("elements",),
    "mlmc_engine.coupled_coarse_interval": (),
    "mlmc_engine.level_sample": (),
    "mlmc_engine.estimator": (),
    "em_engine.strong_error_curve": (),
    "parallel.ordered_map": (),
    "stats.loglog_fit": (),
    "cli_runner.validate": (),
    "cli_runner.write": ("bytes",),
}

#: layers that are plain functions: layer -> (module, function) bindings to wrap
FUNCTIONS = {
    "em_engine.em_step": (("em_engine", "em_step"),),
    "measure.sorted_mean": (("measure", "sorted_mean"),),
    "mlmc_engine.coupled_coarse_interval": (("mlmc_engine", "coupled_coarse_interval"),),
    "mlmc_engine.level_sample": (("mlmc_engine", "simulate_level_pair"),
                                 ("mlmc_engine", "level0_sample")),
    "mlmc_engine.estimator": (("mlmc_engine", "mlmc_estimate"),),
    "em_engine.strong_error_curve": (("em_engine", "strong_error_curve"),),
    "parallel.ordered_map": (("parallel", "ordered_map"),),
    "stats.loglog_fit": (("stats", "loglog_fit"),),
    "cli_runner.validate": (("cli_runner", "validate_config"),),
    "cli_runner.write": (("cli_runner", "write_csv"), ("cli_runner", "write_json")),
}


class Tracer:
    """Spans and counts of one process: install, run, ``layer_table``, uninstall."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.levels: set[int] = set()
        self.absent: list[str] = []
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        """``fn`` wrapped to record a span named ``name`` and the counts ``work`` returns."""
        nid = self._ids[name]
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, start, end)
            counts[calls] += 1
            if work is not None:
                for key, value in work(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Wrap every traced binding in the loaded library modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]

        def lookup(module, attr):
            return getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)

        def rebind(original, replacement):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, replacement)

        work = {
            "em_engine.em_step": lambda args, result: {"particle_steps": result.m},
            "measure.sorted_mean": lambda args, result: {"elements": int(np.size(args[0]))},
            "mlmc_engine.level_sample": self._record_level,
            "cli_runner.write": lambda args, result: {"bytes": Path(args[1]).stat().st_size},
        }
        for name, targets in FUNCTIONS.items():
            found = [f for f in (lookup(m, a) for m, a in targets) if f is not None]
            for original in found:
                rebind(original, self.wrap(name, original, work.get(name)))
            if not found:
                self.absent.append(name)

        stream = lookup("rng", "stream")
        if stream is None:
            self.absent += ["rng.stream", "rng.fill"]
        else:
            traced_stream = self.wrap("rng.stream", stream)
            rebind(stream, lambda *a, **k: _TracedGenerator(traced_stream(*a, **k), self))

        cloud = lookup("measure", "ParticleCloud")
        if cloud is None or not hasattr(cloud, "__post_init__"):
            self.absent.append("measure.cloud")
        else:
            rows = lambda args, result: {"rows": args[0].positions.shape[0]}
            self._patch(cloud, "__post_init__",
                        self.wrap("measure.cloud", cloud.__post_init__, rows))

        build = lookup("model", "builtin_model")
        if build is None:
            self.absent += ["model.drift", "model.diffusion"]
        else:
            drift = self.wrap("model.drift", lambda f, x, mu: f(x, mu))
            diffusion = self.wrap("model.diffusion", lambda f, x, mu: f(x, mu))

            def traced_build(*args, **kwargs):
                spec = build(*args, **kwargs)
                f, g = spec.drift, spec.diffusion
                return dataclasses.replace(spec, drift=lambda x, mu: drift(f, x, mu),
                                           diffusion=lambda x, mu: diffusion(g, x, mu))

            rebind(build, traced_build)

    def _record_level(self, args, result):
        self.levels.add(int(args[1].level))
        return {}

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self.levels.clear()

    def _span_array(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 4)

    def layer_table(self) -> dict[str, float]:
        """Counts and self seconds of every present layer since the last ``reset``."""
        nid, parent, start, end = self._span_array().T
        duration = end - start
        nested = parent >= 0
        inner = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_ns = np.bincount(nid, weights=duration - inner, minlength=len(self._ids))
        table: dict[str, float] = {}
        for name, keys in LAYERS.items():
            if name in self.absent:
                continue
            for key in ("calls",) + keys:
                table[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0)
            table[f"{name}.self_s"] = float(self_ns[self._ids[name]]) / 1e9
        table["mlmc_engine.levels"] = len(self.levels)
        return table

    def write_spans(self, path: Path):
        """Save the spans recorded since the last ``reset``: rows of
        (name index, parent span or -1, start ns, end ns) and the names."""
        np.savez(path, spans=self._span_array(), names=np.array(list(self._ids)))


class _TracedGenerator:
    """A numpy Generator whose Gaussian fills are recorded as ``rng.fill`` spans."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("rng.fill", gen.standard_normal,
                                           lambda args, result: {"draws": int(np.size(result))})

    def __getattr__(self, attr):
        return getattr(self._gen, attr)
