"""Span tracer for the benchmark's traced run.

The tracer wraps each layer function in every `mmdist.*` module namespace
where it is bound, because package-internal calls look names up in the
caller's module (`max_subcoupling`, for one, is imported by gromov, gluing,
prohorov and harness). Each call records one span in memory: layer, start,
end, parent span and operation id. A layer's self time is its span's
duration minus the time its child spans cover. Spans read `clock`, which the
benchmark sets to the probe's busy clock (see probe.py). `restore` puts the
original function objects back.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections.abc import Sized
from time import perf_counter

LAYERS = (
    "cli.main",
    "harness.run_theorem_check",
    "harness.run_counterexample",
    "spaces.load_space",
    "spaces.validate",
    "spaces.canonicalize",
    "prohorov.validate_common",
    "prohorov.prohorov_flow",
    "flow.max_subcoupling",
    "gromov.box_lambda_detail",
    "gromov.distortion",
    "gluing.glued_upper_bound",
    "coding.code_excursion",
    "excursion_metrics.d_gamma_detail",
    "excursion_metrics.d_lambda",
)

# Counters read at layer boundaries from arguments or return values:
# metric name -> (layer, function of (args, kwargs, result) -> number).
COUNTERS = {
    "flow.max_subcoupling.cells": (
        "flow.max_subcoupling",
        lambda args, kwargs, result: len(args[2] if len(args) > 2 else kwargs["allowed"]),
    ),
    "gluing.glued_upper_bound.evaluations": (
        "gluing.glued_upper_bound",
        lambda args, kwargs, result: result.evaluations,
    ),
    "gromov.box_lambda_detail.exact": (
        "gromov.box_lambda_detail",
        lambda args, kwargs, result: int(result.exact),
    ),
    "excursion_metrics.d_gamma_detail.certified": (
        "excursion_metrics.d_gamma_detail",
        lambda args, kwargs, result: int(result.certified),
    ),
}

PACKAGE = "mmdist"


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self, clock=perf_counter):
        self.layers = LAYERS
        self.clock = clock
        self.starts = array("d")
        self.ends = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        modules = package_modules()
        for index, layer in enumerate(self.layers):
            module_name, func_name = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(index, layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, index, layer, fn):
        starts, ends, layers, parents, ops = self.starts, self.ends, self.layer, self.parent, self.op
        stack = self._stack
        counters = [(name, count) for name, (where, count) in COUNTERS.items() if where == layer]
        totals = self.counters
        tracer = self
        clock = self.clock
        sized_allowed = layer == "flow.max_subcoupling"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized_allowed and len(args) > 2 and not isinstance(args[2], Sized):
                args = args[:2] + (tuple(args[2]),) + args[3:]
            span = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()
            for name, count in counters:
                totals[name] += count(args, kwargs, result)
            return result

        wrapper.bench_layer = layer
        return wrapper

    def summary(self):
        """Per layer (calls, self seconds), and the seconds top-level spans cover."""
        n = len(self.starts)
        covered = [0.0] * n
        top = 0.0
        for span in range(n):
            duration = self.ends[span] - self.starts[span]
            parent = self.parent[span]
            if parent < 0:
                top += duration
            else:
                covered[parent] += duration
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for span in range(n):
            index = self.layer[span]
            calls[index] += 1
            self_s[index] += self.ends[span] - self.starts[span] - covered[span]
        return {layer: (calls[i], self_s[i]) for i, layer in enumerate(self.layers)}, top

    def write(self, path):
        """Spans as gzipped CSV: span, layer, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("span,layer,start,end,parent,op\n")
            for span in range(len(self.starts)):
                f.write(
                    f"{span},{self.layers[self.layer[span]]},{self.starts[span]:.9f},"
                    f"{self.ends[span]:.9f},{self.parent[span]},{self.op[span]}\n"
                )
