"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the seven layer
modules with a wrapper that records a span ``(name, start, end, parent)``
in memory, and counts calls into ``loewner.DrivingFunction.eta`` (the
Loewner substep work count; five calls per substep are too many to keep as
spans).  Module attributes are looked up at call time by the program's own
cross-module and intra-module calls, so the wrappers see those calls too.
``uninstall`` restores the originals, so untraced ops run the plain code.

``layer_metrics`` turns the spans and counts into the per-layer metrics.
A layer's self time is its outermost spans' time minus the spans of other
layers they directly caused.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from todaflow import cli, dyson, growth, hydro, laurent, loewner, svgout

LAYERS = {"cli": cli, "svgout": svgout, "laurent": laurent, "growth": growth,
          "loewner": loewner, "hydro": hydro, "dyson": dyson}


def _observe_growth_run(counts, args, kwargs, result):
    counts["growth.rk4_steps"] += len(result.records) - 1


def _observe_minimize(counts, args, kwargs, result):
    counts["dyson.minimize.iterations"] += result.iterations
    counts["dyson.minimize.converged"] += int(bool(result.converged))


def _observe_metropolis(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    sweeps = args[1] if len(args) > 1 else kwargs["sweeps"]
    proposals = config.N * sweeps
    counts["dyson.proposals"] += proposals
    counts["dyson.accepted"] += round(result.acceptance * proposals)


def _observe_slit_trace(counts, args, kwargs, result):
    counts["loewner.tips"] += len(result)


def _observe_advance_many(counts, args, kwargs, result):
    counts["loewner.absorbed"] += int(result.absorbed.sum())


def _observe_solve_characteristics(counts, args, kwargs, result):
    counts["hydro.nodes"] += len(result.grid)


def _observe_run_scenario(counts, args, kwargs, result):
    counts["cli.artifact_bytes"] += sum(f["bytes"] for f in result.manifest["files"])


# Work counts read from a wrapped call's arguments and result.
OBSERVERS = {
    "growth.run": _observe_growth_run,
    "dyson.minimize": _observe_minimize,
    "dyson.metropolis": _observe_metropolis,
    "loewner.slit_trace": _observe_slit_trace,
    "loewner.advance_many": _observe_advance_many,
    "hydro.solve_characteristics": _observe_solve_characteristics,
    "cli.run_scenario": _observe_run_scenario,
}


def public_functions(module):
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module in LAYERS.items():
            for name, fn in public_functions(module).items():
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        eta = loewner.DrivingFunction.eta
        counts = self.counts

        @functools.wraps(eta)
        def counted_eta(driving, q):
            counts["loewner.eta_calls"] += 1
            return eta(driving, q)

        self._saved.append((loewner.DrivingFunction, "eta", eta))
        loewner.DrivingFunction.eta = counted_eta

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def dump(self, path: Path):
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                        encoding="utf-8")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_times(spans):
    """Busy seconds per function name and self seconds per layer."""
    busy = defaultdict(float)
    layer_total = defaultdict(float)
    caused = defaultdict(float)   # time of other-layer spans a layer directly caused
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        ancestor = parent
        while ancestor != -1 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor == -1:       # not nested in a call of the same function
            busy[name] += duration
        layer = _layer(name)
        if parent == -1 or _layer(spans[parent][0]) != layer:
            layer_total[layer] += duration
            if parent != -1:
                caused[_layer(spans[parent][0])] += duration
    self_s = {layer: layer_total[layer] - caused[layer] for layer in LAYERS}
    top = sum(end - start for _, start, end, parent in spans if parent == -1)
    return busy, self_s, top


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``traced_s`` and ``untraced_s`` are the summed op times of the same ops
    run with and without the wrappers.
    """
    busy, self_s, top = span_times(spans)
    calls = Counter(name for name, *_ in spans)
    steps = counts["growth.rk4_steps"]
    metrics = {
        "laurent.univalence_witness.calls": (calls["laurent.univalence_witness"], "count"),
        "laurent.univalence_witness.s": (busy["laurent.univalence_witness"], "s"),
        "laurent.witness_per_step": (_ratio(calls["laurent.univalence_witness"], steps), "ratio"),
        "laurent.evaluate.calls": (calls["laurent.evaluate"], "count"),
        "laurent.derivative.calls": (calls["laurent.derivative"], "count"),
        "laurent.schwarz_extension.s": (busy["laurent.schwarz_extension"], "s"),
        "laurent.inverse_evaluate.calls": (calls["laurent.inverse_evaluate"], "count"),
        "laurent.phi_k.calls": (calls["laurent.phi_k"], "count"),
        "growth.run.s": (busy["growth.run"], "s"),
        "growth.moment_vector.s": (busy["growth.moment_vector"], "s"),
        "growth.rk4_steps": (steps, "count"),
        "growth.s_per_step": (_ratio(busy["growth.run"], steps), "s"),
        "loewner.slit_trace.s": (busy["loewner.slit_trace"], "s"),
        "loewner.tips": (counts["loewner.tips"], "count"),
        "loewner.s_per_tip": (_ratio(busy["loewner.slit_trace"], counts["loewner.tips"]), "s"),
        "loewner.advance_many.s": (busy["loewner.advance_many"], "s"),
        "loewner.fit_map.calls": (calls["loewner.fit_map"], "count"),
        "loewner.fit_map.s": (busy["loewner.fit_map"], "s"),
        "loewner.eta_calls": (counts["loewner.eta_calls"], "count"),
        "loewner.absorbed": (counts["loewner.absorbed"], "count"),
        "hydro.characteristic_speed.calls": (calls["hydro.characteristic_speed"], "count"),
        "hydro.characteristic_speed.s": (busy["hydro.characteristic_speed"], "s"),
        "hydro.shock_time.s": (busy["hydro.shock_time"], "s"),
        "hydro.solve_characteristics.s": (busy["hydro.solve_characteristics"], "s"),
        "hydro.nodes": (counts["hydro.nodes"], "count"),
        "dyson.minimize.s": (busy["dyson.minimize"], "s"),
        "dyson.minimize.iterations": (counts["dyson.minimize.iterations"], "count"),
        "dyson.s_per_iteration": (
            _ratio(busy["dyson.minimize"], counts["dyson.minimize.iterations"]), "s"),
        "dyson.minimize.converged_frac": (
            _ratio(counts["dyson.minimize.converged"], calls["dyson.minimize"]), "ratio"),
        "dyson.support_boundary.s": (busy["dyson.support_boundary"], "s"),
        "dyson.metropolis.s": (busy["dyson.metropolis"], "s"),
        "dyson.proposals": (counts["dyson.proposals"], "count"),
        "dyson.s_per_proposal": (_ratio(busy["dyson.metropolis"], counts["dyson.proposals"]), "s"),
        "dyson.acceptance": (_ratio(counts["dyson.accepted"], counts["dyson.proposals"]), "ratio"),
        "cli.parse_config.s": (busy["cli.parse_config"], "s"),
        "cli.run_scenario.s": (busy["cli.run_scenario"], "s"),
        "cli.artifact_bytes": (counts["cli.artifact_bytes"], "bytes"),
        "svgout.render_svg.s": (busy["svgout.render_svg"], "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["bench.self_s"] = (traced_s - top, "s")
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    return metrics
