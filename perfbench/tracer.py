"""Spans around calls into each costrec layer, recorded from outside the
package.

A layer is a public function (or a model class's ``fold``).  Installing the
tracer replaces the function in every ``costrec`` module that binds it, so
names imported with ``from .x import f`` are wrapped where they are called.
Every call is counted; a span is recorded only when the layer is not already
open, so a recursive call adds to the count but not to the spans.  A span's
self time is its duration minus the time its child spans cover.

Spans stay in memory while the workload runs and are written out at the end.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (layer, module, function) for the layers named in perfbench/README.md
FUNCTION_LAYERS = (
    ("parse", "costrec.source_ast", "parse_program"),
    ("check", "costrec.typecheck", "check_program"),
    ("extract", "costrec.extract", "extract_program"),
    ("check_rec", "costrec.rec_lang", "check_rec"),
    ("simplify", "costrec.rec_lang", "simplify"),
    ("prepare", "costrec.harness", "prepare"),
    ("gen", "costrec.harness", "gen_value"),
    ("eval", "costrec.cost_eval", "apply_function"),
    ("embed", "costrec.models", "value_potential"),
    ("bound", "costrec.harness", "apply_bound"),
    ("antichain", "costrec.semdom", "antichain"),
    ("sem_leq", "costrec.semdom", "sem_leq"),
    ("verdict", "costrec.harness", "run_trial"),
)
MODEL_NAMES = ("exact", "size", "height", "allcons", "merged", "lower")
OP = 0  # layer index of the benchmark operation spans


class Tracer:
    def __init__(self):
        self.names = ["op"] + [name for name, _, _ in FUNCTION_LAYERS] + [
            f"fold.{m}" for m in MODEL_NAMES]
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self._open = [0] * n
        self._stack: list[list] = []  # [layer, span id, start, child time]
        self._next_id = 0
        # finished spans, one entry per array
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_layer = array("B")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_labels: list[str] = []
        self.eval_cost_units = 0
        self.trials_x_models = 0
        self.bound_calls_in_trials = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- spans -----------------------------------------------------------

    def _push(self, layer: int):
        self._open[layer] = 1
        self._stack.append([layer, self._next_id, perf_counter(), 0.0])
        self._next_id += 1

    def _pop(self):
        end = perf_counter()
        layer, sid, start, child = self._stack.pop()
        self._open[layer] = 0
        took = end - start
        self.self_s[layer] += took - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += took
            parent = top[1]
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_layer.append(layer)
        self.span_op.append(len(self.op_labels) - 1)
        self.span_start.append(start)
        self.span_end.append(end)

    def run_op(self, label: str, fn):
        """Run one benchmark operation as a root span with tracing on."""
        self.op_labels.append(label)
        self.calls[OP] += 1
        self.enabled = True
        self._push(OP)
        try:
            return fn()
        finally:
            self._pop()
            self.enabled = False

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, layer_of, on_call=None, on_result=None, materialize=False):
        tracer = self
        calls, is_open = self.calls, self._open

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if materialize:
                # consume a lazy argument before the span opens, so work
                # done by the caller's generator is not charged to this layer
                args = (list(args[0]),) + args[1:]
            layer = layer_of(args)
            calls[layer] += 1
            if on_call is not None:
                on_call(args)
            if is_open[layer]:
                result = fn(*args, **kwargs)
            else:
                tracer._push(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_eval(self, result):
        self.eval_cost_units += result.cost

    def _count_trial(self, args):
        self.trials_x_models += len(args[0].denoted)

    def _count_bound(self, args):
        if self._open[self.index["verdict"]]:
            self.bound_calls_in_trials += 1

    def install(self):
        """Wrap every layer in every loaded costrec module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "costrec" or name.startswith("costrec.")]
        hooks = {
            "eval": {"on_result": self._count_eval},
            "verdict": {"on_call": self._count_trial},
            "bound": {"on_call": self._count_bound},
            "antichain": {"materialize": True},
        }
        for name, module_name, attr in FUNCTION_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            layer = self.index[name]
            wrapped = self._wrap(original, lambda args, layer=layer: layer,
                                 **hooks.get(name, {}))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        models = sys.modules["costrec.models"]
        index = self.index
        for cls in vars(models).values():
            if isinstance(cls, type) and issubclass(cls, models.Model) and "fold" in vars(cls):
                wrapped = self._wrap(vars(cls)["fold"],
                                     lambda args: index["fold." + args[0].name])
                self._patch(cls, "fold", wrapped)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_started

    # -- results ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per round of the workload."""
        c = {name: self.calls[i] for name, i in self.index.items()}
        s = {name: self.self_s[i] for name, i in self.index.items()}
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value / rounds, unit)

        put("parse.calls", c["parse"], "count")
        put("parse.self_s", s["parse"], "s")
        put("check.self_s", s["check"], "s")
        put("extract.self_s", s["extract"], "s")
        put("check_rec.calls", c["check_rec"], "count")
        put("check_rec.self_s", s["check_rec"], "s")
        put("simplify.self_s", s["simplify"], "s")
        put("prepare.self_s", s["prepare"], "s")
        put("gen.calls", c["gen"], "count")
        put("gen.self_s", s["gen"], "s")
        put("eval.calls", c["eval"], "count")
        put("eval.self_s", s["eval"], "s")
        put("eval.cost_units", self.eval_cost_units, "count")
        put("embed.calls", c["embed"], "count")
        put("embed.self_s", s["embed"], "s")
        put("bound.calls", c["bound"], "count")
        put("bound.self_s", s["bound"], "s")
        hits = self.trials_x_models - self.bound_calls_in_trials
        ratio = hits / self.trials_x_models if self.trials_x_models else 0.0
        out["bound.cache_hit_ratio"] = (ratio, "ratio")
        for m in MODEL_NAMES:
            put(f"fold.calls.{m}", c[f"fold.{m}"], "count")
        for m in MODEL_NAMES:
            put(f"fold.self_s.{m}", s[f"fold.{m}"], "s")
        put("antichain.calls", c["antichain"], "count")
        put("antichain.self_s", s["antichain"], "s")
        put("sem_leq.calls", c["sem_leq"], "count")
        put("sem_leq.self_s", s["sem_leq"], "s")
        put("verdict.self_s", s["verdict"], "s")
        put("gc.collections", self.gc_collections, "count")
        put("gc.pause_s", self.gc_pause_s, "s")
        return out

    def write(self, directory: Path, stem: str, extra: dict) -> None:
        """Write the spans (one binary array per field) and a JSON summary
        with per-operation latency distributions.
        """
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("span_id", "span_parent", "span_layer", "span_op",
                  "span_start", "span_end")
        with open(directory / f"{stem}.spans", "wb") as handle:
            for name in fields:
                getattr(self, name).tofile(handle)
        by_label: dict[str, list[float]] = {}
        for layer, op, start, end in zip(self.span_layer, self.span_op,
                                         self.span_start, self.span_end):
            if layer == OP:
                by_label.setdefault(self.op_labels[op], []).append((end - start) * 1e3)
        ops = {}
        for label, ms in by_label.items():
            q = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
            ops[label] = {"n": len(ms), "median_ms": statistics.median(ms),
                          "q1_ms": q[0], "q3_ms": q[2], "max_ms": max(ms)}
        summary = {
            "layers": self.names,
            "spans": len(self.span_id),
            "span_file": {"name": f"{stem}.spans", "fields": list(fields),
                          "typecodes": [getattr(self, f).typecode for f in fields],
                          "itemsizes": [getattr(self, f).itemsize for f in fields]},
            "operations": ops,
            **extra,
        }
        with open(directory / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
