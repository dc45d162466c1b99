"""Span tracing around condgof's public functions, from outside the package.

The tracer replaces each function below with a wrapper at the place its
callers look it up: a module attribute (``condgof.mc.rtp_partition``), a
class attribute (``Partition.locate0``) or a ``backend`` function that other
modules call through ``backend.<name>``. Each wrapper records one span
(layer, call index, parent span, start, end) and so also counts calls.
Spans are kept in memory and written out when the run ends.

A layer's self time is its span's duration minus the durations of its direct
child spans. All per-layer times reported are self times, so they add up to
the traced wall time minus the time spent outside every span. The metrics
reported are the ones BENCHMARK.json lists under ``per_layer``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# layer -> the bindings its callers resolve at call time
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.read_csv_columns": (("condgof.cli", "read_csv_columns"),),
    "cli.cmd_test": (("condgof.cli", "cmd_test"),),
    "partition.locate0": (("condgof.partition", "Partition.locate0"),),
    "backend.locate_cells": (("condgof.backend", "locate_cells"),),
    "partition.build": (
        ("condgof.mc", "rtp_partition"),
        ("condgof.mc", "gessaman_partition"),
        ("condgof.mc", "law_grid_partition"),
        ("condgof.cli", "rtp_partition"),
        ("condgof.cli", "gessaman_partition"),
        ("condgof.cli", "marginal_grid_partition"),
    ),
    "partition.from_dict": (("condgof.cli", "partition_from_dict"),),
    "stats.wald_raw_mle": (("condgof.stats", "wald_raw_mle"),),
    "models.bin_score_means": (
        ("condgof.models", "GaussianLinearModel.bin_score_means"),
        ("condgof.models", "ExponentialRegressionModel.bin_score_means"),
    ),
    "models.expected_information": (
        ("condgof.models", "GaussianLinearModel.expected_information"),
        ("condgof.models", "ExponentialRegressionModel.expected_information"),
    ),
    "models.rosenblatt": (
        ("condgof.mc", "rosenblatt"),
        ("condgof.estimate", "rosenblatt"),
        ("condgof.cli", "rosenblatt"),
        ("condgof.stats", "rosenblatt"),
    ),
    "backend.normal_cdf": (("condgof.backend", "normal_cdf"),),
    "tabulate.cross_classify": (
        ("condgof.mc", "cross_classify"),
        ("condgof.estimate", "cross_classify"),
        ("condgof.cli", "cross_classify"),
    ),
    "estimate.min_chisq_estimate": (
        ("condgof.mc", "min_chisq_estimate"),
        ("condgof.cli", "min_chisq_estimate"),
    ),
    # Pearson, LR, LM, Neyman and the null Wald, as run_test and the
    # min-chi-square objective call them
    "stats.table_stats": (
        ("condgof.stats", "pearson_stat"),
        ("condgof.stats", "lr_stat"),
        ("condgof.stats", "lm_stat"),
        ("condgof.stats", "neyman_stat"),
        ("condgof.stats", "_wald_null_detail"),
        ("condgof.estimate", "pearson_stat"),
    ),
    "estimate.mle_numeric": (
        ("condgof.mc", "mle_numeric"),
        ("condgof.cli", "mle_numeric"),
    ),
    "models.score": (
        ("condgof.models", "GaussianLinearModel.score"),
        ("condgof.models", "ExponentialRegressionModel.score"),
    ),
    "estimate.mle_gaussian_linear": (
        ("condgof.mc", "mle_gaussian_linear"),
        ("condgof.cli", "mle_gaussian_linear"),
    ),
    "mc.simulate_dataset": (("condgof.mc", "simulate_dataset"),),
    "stats.run_test": (("condgof.mc", "run_test"), ("condgof.cli", "run_test")),
    "backend.chisq_sf": (("condgof.backend", "chisq_sf"),),
    "mc.run_replication": (("condgof.mc", "run_replication"),),
    "mc.aggregate": (("condgof.mc", "aggregate"),),
}

class Tracer:
    """Records spans while ``call`` holds the index of a timed call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.call: int | None = None
        self._stack = [-1]

    def wrap(self, layer: str, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            call = tracer.call
            if call is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (layer, call, parent, start, end)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every binding in LAYERS, naming on stderr any not found."""
        missing = []
        for layer, bindings in LAYERS.items():
            for module_name, attr in bindings:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = vars(owner).get(name)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, name, self.wrap(layer, fn))
        if missing:
            print("trace: bindings not found: " + ", ".join(missing), file=sys.stderr)

    def summarize(self, names: list[str], ops: int, count_calls: int,
                  count_ops: int) -> dict[str, float]:
        """The per-layer metrics called `names`, each ``<layer>.<kind>``.

        A kind ending in ``ms_per_op`` is the layer's self ms per op over
        every call. ``calls_per_op`` counts the layer's calls in calls
        0..count_calls-1 only, which hold count_ops operations, so it repeats
        exactly for a given seed whatever the run length.
        """
        child = [0.0] * len(self.spans)
        for layer, call, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = dict.fromkeys(LAYERS, 0.0)
        counts = dict.fromkeys(LAYERS, 0)
        for sid, (layer, call, parent, start, end) in enumerate(self.spans):
            self_ms[layer] += (end - start - child[sid]) * 1e3
            if call < count_calls:
                counts[layer] += 1
        out = {}
        for name in names:
            layer, kind = name.rsplit(".", 1)
            if layer not in LAYERS:
                raise ValueError(f"per-layer metric {name}: no layer {layer} in LAYERS")
            if kind == "calls_per_op":
                out[name] = counts[layer] / count_ops
            elif kind.endswith("ms_per_op"):
                out[name] = self_ms[layer] / ops
            else:
                raise ValueError(f"per-layer metric {name}: unknown kind {kind}")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tcall\tparent\tstart_s\tend_s\n")
            for sid, (layer, call, parent, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{layer}\t{call}\t{parent}\t{start:.9f}\t{end:.9f}\n")

