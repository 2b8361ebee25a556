"""Spans around discal's public functions, installed from outside the package.

`Tracer.install()` replaces each function listed in TRACED with a wrapper
that records a span (name, op id, parent span, start, end) in memory, plus
counts taken from the call's arguments and result.  Module attributes are
replaced, so calls between discal's own modules and within one module (both
look the name up at call time) pass through the wrappers too.
`uninstall()` restores the originals, so untraced ops run the bare package.

A span's self time is its duration minus the durations of its child spans;
a layer's self time is the sum over its spans.  The layer is the span name
up to the first dot, which is the discal module name.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

from discal import classifier, cli, diagnostics, label_mapping, oracle, sim_model

LAYERS = ("sim_model", "label_mapping", "classifier", "diagnostics", "oracle", "cli")


def _table_bytes(args, kwargs, result):
    return {"sim_model.table_bytes": os.path.getsize(args[0])}


def _example_bytes(args, kwargs, result):
    return {"label_mapping.example_bytes":
            sum(b.labels.nbytes + b.features.nbytes for b in result)}


def _gradient_examples(args, kwargs, result):
    data = args[1]
    n = (data.labels.size if isinstance(data, classifier.ExampleArrays)
         else sum(b.n_examples for b in data))
    return {"classifier.gradient_examples": n}


def _assembled_bytes(args, kwargs, result):
    return {"classifier.assembled_bytes": result.x_nl.nbytes + result.x_lin.nbytes
            + result.labels.nbytes + result.batch_ids.nbytes}


def _permutations(args, kwargs, result):
    return {"diagnostics.permutations": result.B}


# (module, function, span name, counter or None)
TRACED = (
    (sim_model, "generate_gaussian_table", "sim_model.generate", None),
    (sim_model, "read_table", "sim_model.read_table", _table_bytes),
    (sim_model, "write_table", "sim_model.write_table", None),
    (label_mapping, "map_table", "label_mapping.map", _example_bytes),
    (classifier, "train", "classifier.train", None),
    (classifier, "gradient", "classifier.gradient", _gradient_examples),
    (classifier, "loss", "classifier.loss", None),
    (classifier, "arrays_from_batches", "classifier.assemble", _assembled_bytes),
    (diagnostics, "run_pipeline", "diagnostics.pipeline", None),
    (diagnostics, "lpd_val", "diagnostics.lpd", None),
    (diagnostics, "bootstrap_ci", "diagnostics.bootstrap", None),
    (diagnostics, "permutation_test", "diagnostics.permutation", _permutations),
    (diagnostics, "visual_export", "diagnostics.visual", None),
    (diagnostics, "write_visual_csv", "diagnostics.visual", None),
    (oracle, "sbc_rank_test", "oracle.sbc", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_diagnose", "cli.diagnose", None),
)


def _assembles(args, kwargs):
    """arrays_from_batches returns an ExampleArrays argument as is: no work."""
    return not isinstance(args[0], classifier.ExampleArrays)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, op, parent index or -1, start, end)
        self.counts = collections.Counter()   # (op, key) -> total
        self.op = None
        self._stack = []
        self._originals = []

    def install(self):
        for module, attr, name, counter in TRACED:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            when = _assembles if name == "classifier.assemble" else None
            setattr(module, attr, self._wrap(fn, name, counter, when))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def _wrap(self, fn, name, counter, when):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.op, key] += value
            self.counts[self.op, name + "_calls"] += 1
            return result
        return traced

    def span(self, name):
        return _Span(self, name)

    def write(self, path):
        with open(path, "w") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, _, _, start, end in self.spans]
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, t.op, self.parent, self.start, end)
        return False


def layer_metrics(tracer, timed_ops, exact_ops, setup_ops):
    """Per-layer metrics from the spans and counts of a traced run.

    Times are per-op means over `timed_ops`; `sim_model.write_table_s` is a
    mean over `setup_ops`.  Call and byte counts are per-op means over
    `exact_ops`, a fixed prefix of the op sequence, so they repeat exactly
    for one seed when the numerics are unchanged.
    """
    timed, setups = set(timed_ops), set(setup_ops)
    total = collections.Counter()     # span name -> inclusive seconds
    own = collections.Counter()       # span name -> self seconds
    layer_own = collections.Counter()
    setup_total = collections.Counter()
    for (name, op, _, start, end), self_s in zip(tracer.spans, tracer.self_times()):
        if op in setups:
            setup_total[name] += end - start
        if op not in timed:
            continue
        total[name] += end - start
        own[name] += self_s
        layer = name.split(".")[0]
        if layer in LAYERS:
            layer_own[layer] += self_s
    n = len(timed)
    op_s = total["op"]

    def mean(counter, key):
        return counter[key] / n

    def exact(key):
        return sum(tracer.counts[op, key] for op in exact_ops) / len(exact_ops)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    timed_counts = collections.Counter()
    for (op, key), value in tracer.counts.items():
        if op in timed:
            timed_counts[key] += value
    m = {
        "trace.op_s": (op_s / n, "s"),
        "sim_model.generate_s": (mean(total, "sim_model.generate"), "s"),
        "sim_model.read_table_s": (mean(total, "sim_model.read_table"), "s"),
        "sim_model.table_bytes": (exact("sim_model.table_bytes"), "bytes"),
        "sim_model.write_table_s": (setup_total["sim_model.write_table"] / len(setups), "s"),
        "label_mapping.map_s": (mean(total, "label_mapping.map"), "s"),
        "label_mapping.map_calls": (exact("label_mapping.map_calls"), "count"),
        "label_mapping.example_bytes": (exact("label_mapping.example_bytes"), "bytes"),
        "classifier.train_s": (mean(total, "classifier.train"), "s"),
        "classifier.train_self_s": (mean(own, "classifier.train"), "s"),
        "classifier.gradient_s": (mean(total, "classifier.gradient"), "s"),
        "classifier.gradient_calls": (exact("classifier.gradient_calls"), "count"),
        "classifier.gradient_examples_per_s": (
            rate(timed_counts["classifier.gradient_examples"],
                 total["classifier.gradient"]), "1/s"),
        "classifier.loss_s": (mean(total, "classifier.loss"), "s"),
        "classifier.loss_calls": (exact("classifier.loss_calls"), "count"),
        "classifier.assemble_s": (mean(total, "classifier.assemble"), "s"),
        "classifier.assemble_calls": (exact("classifier.assemble_calls"), "count"),
        "classifier.assembled_bytes": (exact("classifier.assembled_bytes"), "bytes"),
        "diagnostics.pipeline_s": (mean(total, "diagnostics.pipeline"), "s"),
        "diagnostics.pipeline_self_s": (mean(own, "diagnostics.pipeline"), "s"),
        "diagnostics.lpd_s": (mean(total, "diagnostics.lpd"), "s"),
        "diagnostics.bootstrap_s": (mean(total, "diagnostics.bootstrap"), "s"),
        "diagnostics.permutation_s": (mean(total, "diagnostics.permutation"), "s"),
        "diagnostics.permutations_per_s": (
            rate(timed_counts["diagnostics.permutations"],
                 total["diagnostics.permutation"]), "1/s"),
        "diagnostics.visual_s": (mean(total, "diagnostics.visual"), "s"),
        "oracle.sbc_s": (mean(total, "oracle.sbc"), "s"),
        "cli.diagnose_s": (mean(total, "cli.diagnose"), "s"),
        "cli.diagnose_self_s": (mean(own, "cli.diagnose"), "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (layer_own[layer] / n, "s")
        m[layer + ".self_share"] = (layer_own[layer] / op_s if op_s > 0 else 0.0,
                                    "fraction")
    return m
