"""Benchmark for the mmdist package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the package under `src/` of the checkout this file
sits in. A run is a closed loop: one caller in one process, no threads, the
default code path (`MMSPACE_THREADS` is removed and `--threads` is never
passed). It sets the workload up nine times and reports the median set-up
time, runs one warm-up pass whose outputs are checked by independent routes,
then runs timed passes for about `--seconds` seconds, each of which must
reproduce the warm-up outputs exactly. Every reported time is in reference
seconds (see probe.py), which remove the host's drifting CPU speed; the raw
wall times are kept in the run record.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
splits the time between untraced passes and passes traced per layer (see
spans.py), and reports per-layer calls, self time and counters, per traced
pass, with the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the run: Python version, core count, commit and pass times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from probe import Probe
from spans import COUNTERS, LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
MIN_PASSES = 2
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "exact_rate": "ratio",
    "pass_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "flow.max_subcoupling.cells": "count",
    "gluing.glued_upper_bound.evaluations": "count",
    "gromov.box_lambda_detail.exact_ratio": "ratio",
    "excursion_metrics.d_gamma_detail.certified_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def import_package():
    """Import mmdist afresh from src/, so set-up pays the import every time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mmdist" or n.startswith("mmdist.")]:
        del sys.modules[name]
    mm = importlib.import_module("mmdist")
    importlib.import_module("mmdist.cli")
    if Path(mm.__file__).resolve().parent != SRC / "mmdist":
        raise ImportError(f"mmdist was imported from {mm.__file__}, not from {SRC}")
    return mm


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmdist").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def passes_for(seconds, pass_s, minimum):
    return max(minimum, round(seconds / pass_s))


class Pass(NamedTuple):
    seconds: float  # reference seconds (see probe.py)
    ops: int
    latencies: list  # per query, reference seconds; None for experiments
    busy: float  # seconds, not counting the probe
    wall: float  # seconds as the wall clock read them


class Run:
    """Set-up, the verified warm-up pass, and the timed passes of one run."""

    def __init__(self, name, seed, size, workdir):
        cls = WORKLOADS[name]
        self.probe = Probe()
        busy = []
        with self.probe:
            for _ in range(SETUP_REPEATS):
                gc.collect()
                start = self.probe.clock()
                self.workload = cls(import_package(), str(workdir), seed, size)
                busy.append(self.probe.clock() - start)
        self.setup_times = [t * self.probe.scale() for t in busy]
        self.workload.clock = self.probe.clock
        # warm-up pass: never timed, checked by independent routes
        start = perf_counter()
        self.expected, _ = self.workload.run_pass()
        self.warmup_s = perf_counter() - start
        self.valid = self.workload.check(self.expected)
        self.check_s = perf_counter() - start - self.warmup_s
        self.attempted = len(self.expected)
        self.failed = sum(not ok for ok in self.valid)

    def timed_pass(self):
        """One pass under the probe; counts its failures."""
        gc.collect()
        wall = perf_counter()
        with self.probe:
            start = self.probe.clock()
            outputs, latencies = self.workload.run_pass()
            busy = self.probe.clock() - start
        wall = perf_counter() - wall
        scale = self.probe.scale()
        self.attempted += len(outputs)
        if len(outputs) != len(self.expected):
            self.failed += len(outputs)
        else:
            self.failed += sum(
                not ok or out != want for ok, out, want in zip(self.valid, outputs, self.expected)
            )
        if latencies is not None:
            latencies = [t * scale for t in latencies]
        return Pass(busy * scale, len(outputs), latencies, busy, wall)

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def pass_record(passes, prefix=""):
    return {
        f"{prefix}pass_s": [p.seconds for p in passes],
        f"{prefix}pass_wall_s": [p.wall for p in passes],
    }


def end_to_end(run, seconds):
    passes = [run.timed_pass() for _ in range(passes_for(seconds, run.warmup_s, MIN_PASSES))]
    if run.workload.queries:
        # each query's median over the passes, then percentiles over queries
        op_ms = [1000 * statistics.median(q) for q in zip(*(p.latencies for p in passes))]
    else:
        # an experiment reports no per-instance time: one sample per pass
        op_ms = [1000 * p.seconds / p.ops for p in passes]
    values = {
        "ops_per_s": statistics.median(p.ops / p.seconds for p in passes),
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.p90": percentile(op_ms, 90),
        "exact_rate": sum(
            out is not None and run.workload.exact(out) for out in run.expected
        ) / len(run.expected),
        "pass_rate": 1 - run.failed / run.attempted,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, {**pass_record(passes), "latency_samples": len(op_ms)}


def per_layer(run, seconds, spans_path):
    count = passes_for(seconds / 2, run.warmup_s, 1)
    plain = [run.timed_pass() for _ in range(count)]
    with Tracer(clock=run.probe.clock) as tracer:

        def next_op():
            tracer.op_id += 1

        run.workload.on_op = next_op
        traced = [run.timed_pass() for _ in range(count)]
        del run.workload.on_op
        tracer.write(spans_path)
    layers, top = tracer.summary()
    # spans are in busy seconds; one factor turns them all into reference
    # seconds, so self times plus the remainder add up to the traced passes
    busy = sum(p.busy for p in traced)
    scale = sum(p.seconds for p in traced) / busy
    values = {}
    for layer, (calls, self_s) in layers.items():
        values[f"{layer}.calls"] = calls / count
        values[f"{layer}.self_s"] = self_s * scale / count
    counters = tracer.counters
    values["flow.max_subcoupling.cells"] = counters["flow.max_subcoupling.cells"] / count
    values["gluing.glued_upper_bound.evaluations"] = (
        counters["gluing.glued_upper_bound.evaluations"] / count
    )
    # a ratio over no calls is 1: nothing came back degraded
    for ratio, counter in (
        ("gromov.box_lambda_detail.exact_ratio", "gromov.box_lambda_detail.exact"),
        ("excursion_metrics.d_gamma_detail.certified_ratio", "excursion_metrics.d_gamma_detail.certified"),
    ):
        calls = layers[COUNTERS[counter][0]][0]
        values[ratio] = counters[counter] / calls if calls else 1.0
    values["trace.pass_s"] = busy * scale / count
    values["trace.unattributed_s"] = (busy - top) * scale / count
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.fmean(p.seconds for p in plain)
    record = {
        **pass_record(plain),
        **pass_record(traced, "traced_"),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return values, record


def run(name, seed, seconds, trace, size=None):
    """One benchmark run; returns (result object, run record)."""
    os.environ.pop("MMSPACE_THREADS", None)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        current = Run(name, seed, size, workdir)
        if trace:
            spans_path = WORK / "spans" / f"{name}-seed{seed}.csv.gz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            values, record = per_layer(current, seconds, spans_path)
            units = PER_LAYER_UNITS
        else:
            values, record = end_to_end(current, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(bool(trace)),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=commit(),
        source_sha256=source_digest(),
        setup_s=current.setup_times,
        warmup_s=current.warmup_s,
        check_s=current.check_s,
        ops_per_pass=len(current.expected),
    )
    return current.result(metrics), record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mmdist" / "__init__.py").is_file():
        print(f"bench: no mmdist package under {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
