"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed during set-up, runs one
pass of operations through the package's public entry points, and checks the
outputs of a pass by routes that are independent of the measured path.

Package functions are always looked up as module attributes at call time,
so the traced run sees every call through its wrappers.

The two query workloads draw their inputs from this file's own seeded
generators, never from `random_excursion` or `sample_mm_space`, so a change
to the package cannot change what is measured. `theorem-check` receives
only the seed, because its sampling is part of the experiment, and
`comb-stars` is seed-free by design.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from time import perf_counter

F = Fraction

# Check names in experiment reports that record exactness (gp exact=True,
# d_gamma exact); every other check is a correctness check.
EXACT_CHECKS = ("exact_search", "gp_exact", "gamma_exact")


def call_cli(cli, argv):
    """Run `mmdist` in-process; return (exit code, stdout), stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _scalar(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Workload:
    """One workload: inputs made in __init__ (the set-up), then passes.

    `run_pass` returns one output per operation (None when the operation
    raised or exited nonzero) and, for query workloads, one latency in
    seconds per operation, read from `clock`; it calls `on_op` as each
    operation starts.
    `check` verifies a pass's outputs by independent routes and returns one
    flag per operation. `exact` says whether an output's gp came back exact
    and its d_excursion certified.
    """

    name = ""
    queries = False  # True when an operation is one timed query
    on_op = staticmethod(lambda: None)
    clock = staticmethod(perf_counter)

    def __init__(self, mm, workdir, seed, size=None):
        self.mm = mm
        self.seed = seed
        self.size = self.default_size if size is None else size

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, outputs) -> list:
        raise NotImplementedError

    def exact(self, output) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# experiments driven through `mmdist experiment ... --out report.json`


class ExperimentWorkload(Workload):
    """An operation is one report instance; a pass is one CLI run."""

    def __init__(self, mm, workdir, seed, size=None):
        super().__init__(mm, workdir, seed, size)
        self.report = os.path.join(workdir, f"{self.name}-report.json")
        self.argv = self.make_argv() + ["--out", self.report]

    def make_argv(self) -> list:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.make_argv()).encode()).hexdigest()

    def run_pass(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)
        self.on_op()
        try:
            code, _ = call_cli(self.mm.cli, self.argv)
            with open(self.report, "rb") as f:
                data = f.read()
            instances = json.loads(data)["instances"]
        except Exception:
            return [None], None
        if code != 0:
            return [None] * len(instances), None
        # every instance carries the report digest, so a report whose bytes
        # differ from the verified one fails every operation of its pass
        digest = hashlib.sha256(data).hexdigest()
        return [(digest, inst) for inst in instances], None

    def check(self, outputs) -> list:
        return [out is not None and all(out[1].get("checks", {}).values()) for out in outputs]

    def exact(self, output) -> bool:
        checks = output[1].get("checks", {})
        return all(checks[k] for k in EXACT_CHECKS if k in checks)


class TheoremCheck(ExperimentWorkload):
    name = "theorem-check"
    # instance count; --n-max stays at the CLI default (3)
    default_size = 450

    def make_argv(self):
        return ["experiment", "theorem-check", "--seed", str(self.seed), "--count", str(self.size)]


class CombStars(ExperimentWorkload):
    name = "comb-stars"
    # tooth counts; the CLI default, so the family is the published table
    default_size = "2,3,4,6,8"

    def make_argv(self):
        return ["experiment", "counterexample", "--n-list", self.size]


# ---------------------------------------------------------------------------
# excursion pairs: d_excursion_detail, code both sides, gp of the coded trees

TIME_DEN = 12
VALUE_DEN = 4
# Each block of twenty queries holds fifteen pl pairs, two pc pairs and
# three pairs of four-piece sawtooth excursions. Regular excursions have
# three pieces; their coded trees have at most 4 * 4 = 16 cells, under the
# default 20-cell cap, so gp comes back exact. Sawtooth excursions code to
# 25 to 36 cells and exceed the cap, so exact_rate is 17/20. Pairs of mixed
# kind are left out: their d_gamma cost spreads over a decade (6 to 65 ms),
# and with them the median latency sat where the distribution is sparse.
BLOCK = ("pl",) * 15 + ("pc",) * 2 + ("sawtooth",) * 3
REGULAR_PIECES = 3
SAWTOOTH_PIECES = 4


def _breakpoints(rng, pieces):
    interior = sorted(rng.sample(range(1, TIME_DEN), pieces - 1))
    return [F(0)] + [F(k, TIME_DEN) for k in interior] + [F(1)]


def random_excursion_spec(rng, kind, pieces):
    """(kind, breakpoints, values, breakpoint_values) on rational grids."""
    bps = _breakpoints(rng, pieces)
    if kind == "pl":
        # interior values stay positive: an interior zero splits the tree and
        # makes a query several times cheaper than its neighbours, which
        # leaves a gap in the latency distribution right at its median
        interior = [F(rng.randint(1, VALUE_DEN), VALUE_DEN) for _ in range(pieces - 1)]
        values = [F(0)] + interior + [F(rng.randint(0, VALUE_DEN), VALUE_DEN)]
        return ("pl", tuple(bps), tuple(values), None)
    piece_values = [F(rng.randint(1, VALUE_DEN), VALUE_DEN) for _ in range(pieces)]
    bvals = [F(0)]
    for k in range(1, pieces):
        cap = min(piece_values[k - 1], piece_values[k])
        bvals.append(cap if rng.random() < 0.6 else cap * F(rng.randint(0, VALUE_DEN), VALUE_DEN))
    bvals.append(piece_values[-1])
    return ("pc", tuple(bps), tuple(piece_values), tuple(bvals))


def sawtooth_spec(rng, pieces=SAWTOOTH_PIECES):
    """A pl excursion alternating between peaks and valleys, all at distinct
    levels; with four pieces it codes to a tree of 5 or 6 points."""
    bps = _breakpoints(rng, pieces)
    peaks = rng.sample(range(5, 9), (pieces + 1) // 2)
    valleys = rng.sample(range(1, 4), pieces // 2)
    values = [F(0)]
    for k in range(1, pieces + 1):
        values.append(F(peaks.pop() if k % 2 else valleys.pop(), 8))
    return ("pl", tuple(bps), tuple(values), None)


def excursion_pair_specs(seed, count):
    rng = random.Random(seed)
    specs = []
    for k in range(count):
        kind = BLOCK[k % len(BLOCK)]
        if kind == "sawtooth":
            specs.append((sawtooth_spec(rng), sawtooth_spec(rng)))
        else:
            specs.append(
                (
                    random_excursion_spec(rng, kind, REGULAR_PIECES),
                    random_excursion_spec(rng, kind, REGULAR_PIECES),
                )
            )
    return specs


class ExcursionPairs(Workload):
    name = "excursion-pairs"
    queries = True
    default_size = 200  # queries per pass

    def __init__(self, mm, workdir, seed, size=None):
        super().__init__(mm, workdir, seed, size)
        self.specs = excursion_pair_specs(seed, self.size)
        self.pairs = [(self._build(h), self._build(g)) for h, g in self.specs]

    def _build(self, spec):
        kind, bps, values, bvals = spec
        if kind == "pl":
            return self.mm.pl_excursion(bps, values)
        return self.mm.pc_excursion(bps, values, bvals)

    def inputs_digest(self):
        return hashlib.sha256(repr(self.specs).encode()).hexdigest()

    def run_pass(self):
        mm = self.mm
        outputs, latencies = [], []
        for h, g in self.pairs:
            self.on_op()
            start = self.clock()
            try:
                dexc = mm.d_excursion_detail(h, g)
                ch = mm.code_excursion(h)
                cg = mm.code_excursion(g)
                gp = mm.gromov_prohorov_detail(ch.space, cg.space)
                out = (
                    dexc.value, dexc.lo, dexc.hi, dexc.certified,
                    ch.space, cg.space, gp.value, gp.box_value, gp.exact, gp.pairs,
                )
            except Exception:
                out = None
            latencies.append(self.clock() - start)
            outputs.append(out)
        return outputs, latencies

    def check(self, outputs):
        mm = self.mm
        flags = []
        for out in outputs:
            if out is None:
                flags.append(False)
                continue
            value, lo, hi, _, a, b, gp, box, exact, pairs = out
            # the witness (indices into canonical forms) reproduces box_1/2
            info = mm.correspondence_info(mm.canonicalize(a), mm.canonicalize(b), pairs)
            ok = lo <= value <= hi and box == 2 * gp
            ok = ok and max(info.distortion, 2 * (1 - info.max_coupling_mass)) == box
            if exact:
                # the clique glues alone land on gp; random glues add nothing
                ok = ok and mm.glued_upper_bound(a, b, search_budget=0).value == gp
            flags.append(ok)
        return flags

    def exact(self, output):
        return output[8] and output[3]


# ---------------------------------------------------------------------------
# space queries: `mmdist dist prohorov` on two mmspace/1 files

GRID = 8
# Twenty queries of each size; with five sizes, p50 and p90 fall in the
# middle of the 11-point and the 15-point groups.
SPACE_SIZES = (7, 9, 11, 13, 15)
# subset enumeration costs 2^n; at n = 11 and 12 it takes 0.3 s and 0.6 s
BRUTEFORCE_MAX_N = 10


def common_space_spec(rng, n):
    """Points of a GRID x GRID lattice under the L1 metric scaled to [0, 2],
    a measure of integer weights 3..9, and a second measure that moves three
    units of that weight between random points (so no weight goes negative).

    Nearby measures keep the Prohorov threshold scan to a step or two, so a
    query's cost is set by its size; with independent measures the scan
    length doubled the spread of latencies within one size.
    """
    pts = [(rng.randint(0, GRID), rng.randint(0, GRID)) for _ in range(n)]
    dist = tuple(
        tuple(F(abs(p[0] - q[0]) + abs(p[1] - q[1]), GRID) for q in pts) for p in pts
    )
    mu = [rng.randint(3, 9) for _ in range(n)]
    nu = list(mu)
    for _ in range(3):
        nu[rng.randrange(n)] -= 1
        nu[rng.randrange(n)] += 1
    total = sum(mu)
    return dist, tuple(F(w, total) for w in mu), tuple(F(w, total) for w in nu)


def space_document(dist, weights) -> str:
    return json.dumps(
        {
            "format": "mmspace/1",
            "labels": [f"x{i}" for i in range(len(dist))],
            "dist": [[_scalar(x) for x in row] for row in dist],
            "weights": [_scalar(w) for w in weights],
        },
        sort_keys=True,
    )


class SpaceQueries(Workload):
    name = "space-queries"
    queries = True
    default_size = 100  # queries per pass

    def __init__(self, mm, workdir, seed, size=None):
        super().__init__(mm, workdir, seed, size)
        rng = random.Random(seed)
        self.specs = []
        self.argvs = []
        for k in range(self.size):
            dist, mu, nu = common_space_spec(rng, SPACE_SIZES[k % len(SPACE_SIZES)])
            paths = []
            for side, weights in (("a", mu), ("b", nu)):
                path = os.path.join(workdir, f"space-{k:03d}-{side}.json")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(space_document(dist, weights))
                paths.append(path)
            self.specs.append((dist, mu, nu))
            self.argvs.append(["dist", "prohorov", "--a", paths[0], "--b", paths[1], "--raw"])

    def inputs_digest(self):
        return hashlib.sha256(repr(self.specs).encode()).hexdigest()

    def run_pass(self):
        cli = self.mm.cli
        outputs, latencies = [], []
        for argv in self.argvs:
            self.on_op()
            start = self.clock()
            try:
                code, out = call_cli(cli, argv)
                value = F(out.strip()) if code == 0 else None
            except Exception:
                value = None
            latencies.append(self.clock() - start)
            outputs.append(value)
        return outputs, latencies

    def check(self, outputs):
        mm = self.mm
        flags = []
        for (dist, mu, nu), value in zip(self.specs, outputs):
            ok = value is not None and 0 <= value <= 1
            if ok and len(dist) <= BRUTEFORCE_MAX_N:
                cm = mm.CommonSpaceMeasures(dist, mu, nu)
                ok = mm.prohorov_bruteforce(cm) == value
            flags.append(ok)
        return flags

    def exact(self, output):
        # Prohorov values are exact rationals by construction
        return True


WORKLOADS = {w.name: w for w in (TheoremCheck, CombStars, ExcursionPairs, SpaceQueries)}
