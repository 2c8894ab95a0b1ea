"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on every workload; that a traced run leaves the package's
original function objects in place (and the probe no timer behind); that
one seed gives identical inputs; and that another seed gives different
inputs with the same metric names.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import types

import run
import spans
from workloads import WORKLOADS

TINY = {"theorem-check": 3, "comb-stars": "2,3", "excursion-pairs": 20, "space-queries": 10}
# comb-stars takes no seed: the comb family is fixed by design
SEEDED = ("theorem-check", "excursion-pairs", "space-queries")


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared_units():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def function_attributes():
    return {
        (module.__name__, attr): value
        for module in spans.package_modules()
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


def check_metrics():
    end_to_end, per_layer = declared_units()
    names = {}
    for name in WORKLOADS:
        for seed in (1, 2):
            for trace, declared in ((0, end_to_end), (1, per_layer)):
                if seed == 2 and trace == 1:
                    continue
                result, _ = run.run(name, seed, 1, trace, size=TINY[name])
                check(result["correct"] and result["failed"] == 0, f"{name} seed {seed}: {result}")
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                check(emitted == declared, f"{name} trace {trace} emits {emitted}")
                check(
                    all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    f"{name}: non-numeric metric",
                )
                check(
                    signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
                    and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
                    f"{name}: the probe left its timer or handler behind",
                )
                if trace:
                    leftover = [k for k, v in function_attributes().items() if hasattr(v, "bench_layer")]
                    check(not leftover, f"{name}: wrappers left after a traced run: {leftover}")
                names[(name, seed, trace)] = sorted(emitted)
        check(names[(name, 1, 0)] == names[(name, 2, 0)], f"{name}: metric names depend on the seed")


def check_restore():
    mm = run.import_package()
    before = function_attributes()
    with spans.Tracer():
        during = function_attributes()
        check(mm.gromov.max_subcoupling is not before[("mmdist.gromov", "max_subcoupling")],
              "gromov's max_subcoupling was not wrapped")
        wrapped = {k for k in before if during[k] is not before[k]}
        check({k[1] for k in wrapped} >= {layer.rsplit(".", 1)[1] for layer in spans.LAYERS},
              "some layer was not wrapped")
    after = function_attributes()
    check(after.keys() == before.keys() and all(after[k] is before[k] for k in before),
          "the tracer did not restore every original function")


def check_inputs():
    workdir = run.WORK / "selftest"
    try:
        for name, cls in WORKLOADS.items():
            digests = {}
            for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
                path = workdir / f"{name}-{sub}"
                path.mkdir(parents=True, exist_ok=True)
                digests[sub] = cls(run.import_package(), str(path), seed, TINY[name]).inputs_digest()
            check(digests["a"] == digests["b"], f"{name}: one seed gave two different inputs")
            if name in SEEDED:
                check(digests["a"] != digests["c"], f"{name}: two seeds gave the same inputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    check_restore()
    check_inputs()
    check_metrics()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
