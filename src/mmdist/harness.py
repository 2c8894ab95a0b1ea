"""Reproducible experiments over the distance implementations.

Four experiments, each deterministic in its seed: the identity between the
Gromov-Prohorov distance and the half box-metric (with the glue of gp's
witness and the lambda ladder), the 2-Lipschitz bound for coding excursions
in the uniform norm, the comb-family table separating the excursion metric
from the coded-tree distances, and the continuity schedules (value jitter
and breakpoint jitter).

Reports carry exact rationals plus rounded decimals, a pass/fail flag per
named check, and totals. They contain no timing and no environment data, so
rerunning with the same seed reproduces the JSON byte for byte, on any
number of CPUs. A failing check never aborts the run; it is recorded and
counted.

The two seeded-count experiments (theorem-check, lipschitz) draw each
instance from its seed and index alone, so they split their instances into
contiguous shares, one per usable CPU, and run every share but the first in
a forked child (`_ordered_map`); the results come back in index order, so
the report is the sequential run's, byte for byte. The counterexample table
and the continuity schedules stay sequential.
"""

from __future__ import annotations

import csv
import io
import json
import os
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coding import MAX_CODING_SEGMENTS, code_excursion, pl_cut_points
from .errors import SizeError, ValidationError
from .exact import decimal_str, format_scalar
from .excursion_metrics import d_excursion_detail, d_gamma_detail, d_lambda
from .excursions import comb, is_count, normalize, pl_excursion, step_one, sup_diff, tent, zero_excursion
from .gluing import _glued_ladder
from .gromov import (
    DEFAULT_SEARCH_BUDGET,
    correspondence_info,
    gromov_prohorov_detail,
)
from .spaces import canonicalize, dumps_json, mm_space, sample_mm_space

import random

LAMBDA_LADDER = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
# each lam's report key, and v / u for each adjacent (u, v) of the ladder
_LADDER_KEYS = tuple(map(format_scalar, LAMBDA_LADDER))
_LADDER_RATIOS = tuple(v / u for u, v in zip(LAMBDA_LADDER, LAMBDA_LADDER[1:]))


# Fewest indices per process for which `_ordered_map` forks. On a 2-vCPU
# Linux host a fork, its pipe and its reaping cost about 3 ms, and
# theorem-check at n_max 3 took, sequentially against two shares (medians of
# 10 alternating rounds): 5.4 against 7.4 ms for 16 instances, 9.7 against
# 10.0 ms for 32, 19.5 against 15.7 ms for 64 and 39.4 against 27.6 ms for 128.
SHARE = 32


def _worker_count(n):
    """Processes `_ordered_map` spreads n indices over: one per usable CPU,
    each with at least SHARE indices. 1, no fork, where the usable CPUs are
    unknown, where fork is missing, or while other threads run: a fork
    copies no thread, so a lock one of them holds would stay locked in the
    child."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    workers = min(len(os.sched_getaffinity(0)), n // SHARE)
    if workers > 1:
        # imported only where a run forks, so the other runs never load it
        import multiprocessing
        import threading

        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            return 1
    return workers


def _run_share(fn, lo, hi, conn):
    """A forked child's share: (True, [fn(i) for i in range(lo, hi)]) or
    (False, the first exception), pickled into `conn`. Ctrl-C reaches the
    whole process group; only the parent acts on it, and ends its children."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        out = True, [fn(i) for i in range(lo, hi)]
    except Exception as exc:  # raised in the parent, in index order
        out = False, exc
    with conn:
        conn.send(out)


def _ordered_map(fn, n):
    """`[fn(i) for i in range(n)]`, in contiguous shares across processes.

    Each share is a run of indices, at least SHARE long, one per usable CPU
    (`_worker_count`). This process computes the first share, and a forked
    child computes each other one and sends its results back through its own
    one-way pipe. Fork, not spawn: `fn` may be a closure, and a forked child
    needs no fresh import. With a single share the list is made here, in
    order. An exception from fn surfaces as the sequential run's first one
    would: the lowest failing share's, this process's own first. On any
    exception every child is ended and reaped before it propagates.
    """
    workers = _worker_count(n)
    if workers < 2:
        return [fn(i) for i in range(n)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    bounds = [n * k // workers for k in range(workers + 1)]
    # a child flushes the std streams it inherits as it exits, which would
    # write their unflushed text a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            recv, send = ctx.Pipe(duplex=False)
            children.append((ctx.Process(target=_run_share, args=(fn, lo, hi, send)), recv))
            with send:  # the child's end: this process only reads
                children[-1][0].start()
        results = [fn(i) for i in range(bounds[1])]
        for proc, recv in children:
            # read before joining: a share's results can outgrow the pipe's
            # buffer, and the child exits only once they are read
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a worker exited with code {proc.exitcode}") from None
            if not ok:
                raise value
            results += value
        return results
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            if proc.pid is not None:  # a fork that failed started nothing
                proc.join()


def _entry(q):
    """Exact rational plus its 12-digit round-half-even decimal."""
    return {"rational": format_scalar(q), "decimal": decimal_str(q)}


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    seed: object
    params: dict
    instances: tuple
    summary: dict
    totals: dict

    def to_obj(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": self.params,
            "instances": list(self.instances),
            "summary": self.summary,
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return dumps_json(self.to_obj())

    def to_csv(self) -> str:
        rows = []
        for inst in self.instances:
            row = {}
            _flatten("", inst, row)
            rows.append(row)
        fields = sorted({k for row in rows for k in row})
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fields, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()

    @property
    def passed(self) -> bool:
        return self.totals["failures"] == 0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_csv())


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple)):
        out[prefix] = json.dumps(obj, separators=(",", ":"))
    else:
        out[prefix] = obj


def _finish(experiment, seed, params, instances, summary) -> ExperimentReport:
    checks = sum(len(inst.get("checks", {})) for inst in instances)
    failures = sum(
        1 for inst in instances for ok in inst.get("checks", {}).values() if not ok
    )
    totals = {
        "checks": checks,
        "failures": failures,
        "instances": len(instances),
        "passed": failures == 0,
    }
    return ExperimentReport(experiment, seed, params, tuple(instances), summary, totals)


# ---------------------------------------------------------------------------
# identity between the tree distance and the half box-metric


def run_theorem_check(
    seed: int = 42,
    count: int = 200,
    n_max: int = 3,
) -> ExperimentReport:
    """Random pairs: the glue of gp's witness equals gp, box chain, lambda ladder."""
    if count < 0:
        raise ValidationError("count must be at least 0")
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")

    def one(idx):
        if idx == 0:
            a = mm_space(("p0",), ((Fraction(0),),), (Fraction(1),))
            b = mm_space(
                ("p0", "p1"),
                ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
                (Fraction(3, 4), Fraction(1, 4)),
            )
            a, b = canonicalize(a), canonicalize(b)  # as sample_mm_space's are
            kind = "pinned"
        else:
            a = sample_mm_space(seed * 2_000_003 + 2 * idx, n_max=n_max)
            b = sample_mm_space(seed * 2_000_003 + 2 * idx + 1, n_max=n_max)
            kind = "random"
        ladder_boxes, glue = _glued_ladder(a, b, LAMBDA_LADDER, DEFAULT_SEARCH_BUDGET)
        # the box values in LAMBDA_LADDER order, as `_glued_ladder` returns them
        values = [box.value for box in ladder_boxes]
        _, half, box1, _ = values  # lam = 1/4, 1/2, 1, 2
        exact, gp_value = glue.exact, half / 2
        ladder = list(zip(values, values[1:]))
        checks = {
            "box1_le_twice_gp": box1 <= 2 * gp_value,
            "box_nonincreasing_in_lambda": all(u >= v for u, v in ladder),
            "box_ratio_bound": all(
                u <= ratio * v for (u, v), ratio in zip(ladder, _LADDER_RATIOS)
            ),
            "exact_search": exact,
            # past gp's budget there is no exact gp to compare the glue with
            "glue_equals_gp": exact and glue.value == gp_value,
            "gp_le_box1": gp_value <= box1,
        }
        if idx == 0:
            checks["pinned_quarter"] = gp_value == Fraction(1, 4)
        inst = {
            "id": f"{kind}-{idx:03d}",
            "n_a": a.n,
            "n_b": b.n,
            "gp": _entry(gp_value),
            "box": dict(zip(_LADDER_KEYS, map(_entry, values))),
            "checks": checks,
        }
        if not exact:
            return inst, None
        inst.update(glue=_entry(glue.value), glue_eps=_entry(glue.eps), glue_source=glue.source)
        return inst, glue.value - gp_value

    results = _ordered_map(one, count + 1)
    instances = [inst for inst, _ in results]
    gaps = [gap for _, gap in results if gap is not None]
    summary = {
        "equal_pairs": sum(1 for g in gaps if g == 0),
        "max_glue_gap": _entry(max(gaps)),
    }
    params = {"budget": DEFAULT_SEARCH_BUDGET, "count": count, "n_max": n_max}
    return _finish("theorem-check", seed, params, instances, summary)


# ---------------------------------------------------------------------------
# codes of nearby excursions via a shared cut set


def _diagonal_certificate(h, g):
    """Code h and g on the union cut set and bound gp by the aligned pairs.

    The union cut set already holds every breakpoint and level crossing of
    both excursions, so both codes cut at exactly those times and segment k
    of one covers the same interval as segment k of the other. Pushing
    segment lengths through both projections gives a full coupling supported
    on the index-aligned correspondence, so the certified bound is half its
    distortion. Returns (checks, codes, pairs, bound); the checks
    `codes_aligned` (equal projection lengths) and `mass_full` would read
    false, not raise, if the codes ever disagreed.
    """
    if h.kind != "pl" or g.kind != "pl":
        raise ValidationError("shared-cut certificates need pl excursions")
    cuts = tuple(sorted(set(pl_cut_points(h)) | set(pl_cut_points(g))))
    ch = code_excursion(h, resolution=cuts)
    cg = code_excursion(g, resolution=cuts)
    pairs = tuple(sorted(set(zip(ch.projection, cg.projection))))
    info = correspondence_info(ch.space, cg.space, pairs)
    mass = info.max_coupling_mass
    checks = {
        "codes_aligned": len(ch.projection) == len(cg.projection),
        "mass_full": mass == 1,
    }
    return checks, (ch, cg), pairs, max(info.distortion, 2 * (1 - mass)) / 2


def run_lipschitz_check(
    seed: int = 7,
    count: int = 100,
) -> ExperimentReport:
    """Shared-breakpoint pl pairs: coded-tree distance <= 2 * sup |h - g|."""
    if count < 0:
        raise ValidationError("count must be at least 0")

    def sample_pair(rng, tiny):
        den = 4 if tiny else rng.choice((4, 6))
        pieces = 2 if tiny else rng.randint(2, 4)
        interior = sorted(rng.sample(range(1, den), pieces - 1))
        bps = [Fraction(0)] + [Fraction(k, den) for k in interior] + [Fraction(1)]
        grid = (
            (Fraction(0), Fraction(1, 2), Fraction(1))
            if tiny
            else tuple(Fraction(j, 4) for j in range(5))
        )

        def values():
            mid = [rng.choice(grid) for _ in range(len(bps) - 2)]
            return [Fraction(0)] + mid + [Fraction(0)]

        return pl_excursion(bps, values()), pl_excursion(bps, values())

    def one(idx):
        if idx == 0:
            h = tent()
            g = pl_excursion(h.breakpoints, tuple(v * Fraction(9, 10) for v in h.values))
            kind = "pinned"
        else:
            rng = random.Random(seed * 1_000_003 + idx)
            h, g = sample_pair(rng, tiny=idx % 2 == 1)
            kind = "random"
        pair = normalize(h), normalize(g)  # checked once; the report reads h itself
        sup = sup_diff(*pair)
        checks, codes, pairs, ub = _diagonal_certificate(*pair)
        gp = gromov_prohorov_detail(*(c.space for c in codes), seeds=(pairs,))
        checks.update(
            bound_certified=ub <= 2 * sup,
            bound_exact=gp.value <= 2 * sup,
            search_exact=gp.exact,
        )
        inst = {
            "id": f"{kind}-{idx:03d}",
            "pieces": len(h.values) - 1,
            "points_h": codes[0].space.n,
            "points_g": codes[1].space.n,
            "sup_diff": _entry(sup),
            "bound": _entry(2 * sup),
            "gp_upper": _entry(ub),
            "gp": _entry(gp.value),
            "checks": checks,
        }
        if sup <= 0:
            return inst, None
        ratio = gp.value / (2 * sup)
        inst["ratio"] = _entry(ratio)
        return inst, ratio

    results = _ordered_map(one, count + 1)
    instances = [inst for inst, _ in results]
    ratios = [ratio for _, ratio in results if ratio is not None]
    summary = {
        "exact_instances": len(ratios),
        "max_ratio": _entry(max(ratios, default=Fraction(0))),
    }
    params = {"budget": DEFAULT_SEARCH_BUDGET, "count": count}
    return _finish("lipschitz", seed, params, instances, summary)


# ---------------------------------------------------------------------------
# the comb family: excursion distances shrink, coded-tree distances do not


def run_counterexample(n_list=(2, 3, 4, 6, 8)) -> ExperimentReport:
    counts = list(n_list)
    if not counts or not all(map(is_count, counts)):
        raise ValidationError("tooth counts must be positive integers")
    ns = tuple(sorted(set(map(int, counts))))
    if len(ns) < 2:
        # the table's assertions are about off-diagonal pairs
        raise ValidationError(f"need at least two distinct tooth counts, got {ns[0]}")
    # comb(n) codes to n segments: the coder's refusal, before any comb is built
    for n in ns:
        if n > MAX_CODING_SEGMENTS:
            raise SizeError(f"{n} segments exceeds the coding cap {MAX_CODING_SEGMENTS}")
    combs = {n: normalize(comb(n)) for n in ns}  # checked once, for every distance and coding
    stars = {n: code_excursion(combs[n]).space for n in ns}
    instances = []
    table = {}
    for pos, n in enumerate(ns):
        for m in ns[pos:]:
            result = d_excursion_detail(combs[n], combs[m])
            gam, lam, exc = result.gamma, result.lam, result.value
            gp = gromov_prohorov_detail(stars[n], stars[m])
            table[(n, m)] = (exc, gp.value)
            checks = {"gamma_exact": gam.exact, "gp_exact": gp.exact}
            if n == m:
                checks["diagonal_zero"] = exc == 0 and gp.value == 0
            instances.append(
                {
                    "id": f"pair-{n}-{m}",
                    "n": n,
                    "m": m,
                    "d_lambda": _entry(lam),
                    "d_gamma": _entry(gam.value),
                    "d_excursion": _entry(exc),
                    "gp_coded": _entry(gp.value),
                    "checks": checks,
                }
            )
    for n in ns:
        gam0 = d_gamma_detail(combs[n], zero_excursion("pc"))
        lam1 = d_lambda(combs[n], step_one())
        instances.append(
            {
                "id": f"limits-{n}",
                "n": n,
                "d_gamma_to_zero": _entry(gam0.value),
                "d_lambda_to_step": _entry(lam1),
                "checks": {
                    # epigraphs converge to the zero function at half the
                    # tooth spacing, while in measure the limit is the step
                    "epigraph_gap_half_spacing": gam0.exact
                    and gam0.value == Fraction(1, 2 * n),
                    "measure_gap_to_step_zero": lam1 == 0,
                },
            }
        )
    offdiag = [(n, m) for (n, m) in table if n != m]
    consecutive = [table[(ns[i], ns[i + 1])][0] for i in range(len(ns) - 1)]
    positives = sorted(table[p][1] for p in offdiag if table[p][1] > 0)
    doubling = [table[(n, 2 * n)][1] for n in ns if (n, 2 * n) in table]
    checks = {
        "dexc_consecutive_nonincreasing": all(
            consecutive[i + 1] <= consecutive[i] for i in range(len(consecutive) - 1)
        ),
        "dexc_small_past_six": all(
            table[(n, m)][0] < Fraction(1, 5) for (n, m) in offdiag if n >= 6 and m >= 6
        ),
        "gp_bounded_below": bool(positives)
        and all(table[p][1] >= positives[0] for p in offdiag),
        "gp_min_positive_at_least_tenth": bool(positives)
        and positives[0] >= Fraction(1, 10),
    }
    if doubling:
        checks["doubling_gap_constant"] = len(set(doubling)) == 1
    assertion_row = {"id": "table-assertions", "checks": checks}
    if positives:
        assertion_row["min_positive_gp"] = _entry(positives[0])
    if doubling:
        assertion_row["doubling_gp"] = _entry(doubling[0])
    instances.append(assertion_row)
    summary = {
        "min_positive_gp": _entry(positives[0]) if positives else _entry(Fraction(0)),
        "pairs": len(table),
    }
    params = {"budget": DEFAULT_SEARCH_BUDGET, "n_list": list(ns)}
    return _finish("counterexample", None, params, instances, summary)


# ---------------------------------------------------------------------------
# continuity schedules


def _two_peak() -> "Excursion":
    return pl_excursion(
        (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
        (0, 1, Fraction(1, 4), Fraction(3, 4), 0),
    )


def run_continuity_check(
    seed: int = 0,
    schedule: int = 8,
    h=None,
) -> ExperimentReport:
    """Perturbation schedules with d_excursion -> 0 keep coded gp inside
    envelopes that halve at every step.

    Value jitter scales the values of the base toward it; breakpoint jitter
    moves interior breakpoints while keeping the values, which is small in
    the excursion metric but large in the uniform metric.
    """
    if schedule < 1:
        raise ValidationError("schedule must be at least 1")
    base_v = h if h is not None else tent()
    if base_v.kind != "pl":
        raise ValidationError("the value-jitter base must be a pl excursion")
    # each excursion is checked once; the report reads the bases as given
    norm_v = normalize(base_v)
    instances = []

    def row(mode, step, base, g, envelope, dexc_bound, checks, **keys):
        """One schedule step: the shared-cut certificate of (base, g) under
        `envelope`, d_excursion under `dexc_bound`, the mode's checks and keys."""
        cert_checks, _, _, ub = _diagonal_certificate(base, g)
        dexc = d_excursion_detail(base, g)
        checks.update(cert_checks)
        # the bound is nonnegative, so under the envelope 0 of step 0 it reads "is 0"
        null = mode == "breakpoint" and step == 0
        checks["null_perturbation_zero" if null else "gp_below_envelope"] = ub <= envelope
        dexc_check = "dexc_le_twice_sup" if mode == "value" else "dexc_le_slope_bound"
        checks[dexc_check] = dexc.hi <= dexc_bound + Fraction(1, 10**8)
        instances.append(
            {
                "id": f"{mode}-{step:02d}",
                "mode": mode,
                "step": step,
                "envelope": _entry(envelope),
                "gp_upper": _entry(ub),
                "dexc_hi": _entry(dexc.hi),
                "checks": checks,
                **keys,
            }
        )

    peak = max(base_v.values)
    for k in range(schedule + 1):
        factor = Fraction(0) if k == 0 else Fraction(1, 2**k)
        g = normalize(
            pl_excursion(base_v.breakpoints, tuple(v * (1 - factor) for v in base_v.values))
        )
        sup = sup_diff(norm_v, g)
        scaled_peak = {"sup_is_scaled_peak": sup == factor * peak}
        row("value", k, norm_v, g, 2 * sup, 2 * sup, scaled_peak, sup_diff=_entry(sup))

    base_b = normalize(_two_peak())  # already in normal form: only marked
    pattern = (Fraction(1, 32), Fraction(-1, 64), Fraction(1, 64))
    shifts0 = (Fraction(0),) + pattern + (Fraction(0),)
    bps, values = base_b.breakpoints, base_b.values
    gaps = [t1 - t0 for t0, t1 in zip(bps, bps[1:])]
    delta0 = max(abs(s) for s in shifts0)
    eta_hat = max(abs(s1 - s0) / gap for s0, s1, gap in zip(shifts0, shifts0[1:], gaps))
    slope = max(abs(v1 - v0) / gap for v0, v1, gap in zip(values, values[1:], gaps))
    e_base = max(4 * slope * delta0, eta_hat)
    for k in range(schedule + 1):
        scale = Fraction(0) if k == 0 else Fraction(2) / 2**k
        g = normalize(pl_excursion([t + s * scale for t, s in zip(bps, shifts0)], values))
        delta_k = delta0 * scale
        bound = (1 + slope) * delta_k
        row("breakpoint", k, base_b, g, e_base * scale, bound, {}, max_shift=_entry(delta_k))

    summary = {
        "envelopes_halve": True,  # envelopes are (constant) * 2**(1-k) by construction
        "value_envelope_base": _entry(2 * peak),
        "breakpoint_envelope_base": _entry(e_base),
    }
    params = {"schedule": schedule, "value_base_pieces": len(base_v.values) - 1}
    return _finish("continuity", seed, params, instances, summary)
