"""Reproducible experiments over the distance implementations.

Four experiments, each deterministic in its seed: the identity between the
Gromov-Prohorov distance and the half box-metric (with the gluing search and
the lambda ladder), the 2-Lipschitz bound for coding excursions in the
uniform norm, the comb-family table separating the excursion metric from the
coded-tree distances, and the continuity schedules (value jitter and
breakpoint jitter).

Reports carry exact rationals plus rounded decimals, a pass/fail flag per
named check, and totals. They contain no timing and no environment data, so
rerunning with the same seed reproduces the JSON byte for byte. A failing
check never aborts the run; it is recorded and counted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .coding import code_excursion, pl_cut_points
from .errors import ValidationError
from .exact import decimal_str, format_scalar
from .excursion_metrics import d_excursion_detail, d_gamma_detail, d_lambda
from .excursions import comb, pl_excursion, step_one, sup_diff, tent, zero_excursion
from .gluing import glued_upper_bound
from .gromov import (
    DEFAULT_SEARCH_BUDGET,
    box_lambda_detail,
    correspondence_info,
    gromov_prohorov_detail,
)
from .spaces import dumps_json, mm_space, sample_mm_space

import random

LAMBDA_LADDER = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))


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
    """Random pairs: gluing search equals gp, box chain, lambda ladder."""
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
            kind = "pinned"
        else:
            a = sample_mm_space(seed * 2_000_003 + 2 * idx, n_max=n_max)
            b = sample_mm_space(seed * 2_000_003 + 2 * idx + 1, n_max=n_max)
            kind = "random"
        gp = gromov_prohorov_detail(a, b)
        # past gp's budget the glue search may run out too, and there is no
        # exact gp to compare it with
        glue = glued_upper_bound(a, b) if gp.exact else None
        boxes = {}
        for lam in LAMBDA_LADDER:
            if lam == Fraction(1, 2):
                boxes[lam] = gp.box_value
            else:
                boxes[lam] = box_lambda_detail(a, b, lam).value
        ladder = list(zip(LAMBDA_LADDER, LAMBDA_LADDER[1:]))
        checks = {
            "box1_le_twice_gp": boxes[Fraction(1)] <= 2 * gp.value,
            "box_nonincreasing_in_lambda": all(
                boxes[u] >= boxes[v] for u, v in ladder
            ),
            "box_ratio_bound": all(
                boxes[u] <= (v / u) * boxes[v] for u, v in ladder
            ),
            "exact_search": gp.exact,
            "glue_equals_gp": glue is not None and glue.value == gp.value,
            "gp_le_box1": gp.value <= boxes[Fraction(1)],
        }
        if idx == 0:
            checks["pinned_quarter"] = gp.value == Fraction(1, 4)
        inst = {
            "id": f"{kind}-{idx:03d}",
            "n_a": a.n,
            "n_b": b.n,
            "gp": _entry(gp.value),
            "box": {format_scalar(lam): _entry(v) for lam, v in boxes.items()},
            "checks": checks,
        }
        if glue is None:
            return inst, None
        inst.update(glue=_entry(glue.value), glue_eps=_entry(glue.eps), glue_source=glue.source)
        return inst, glue.value - gp.value

    results = [one(idx) for idx in range(count + 1)]
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

    Both codes cut at identical times, so segment k of one code covers the
    same interval as segment k of the other; pushing segment lengths through
    both projections gives a full coupling supported on the index-aligned
    correspondence. The certified bound is then half its distortion.
    """
    if h.kind != "pl" or g.kind != "pl":
        raise ValidationError("shared-cut certificates need pl excursions")
    cuts = tuple(sorted(set(pl_cut_points(h)) | set(pl_cut_points(g))))
    ch = code_excursion(h, resolution=cuts)
    cg = code_excursion(g, resolution=cuts)
    aligned = len(ch.projection) == len(cg.projection)
    cert = {
        "aligned": aligned,
        "codes": (ch, cg),
        "pairs": (),
        "mass": Fraction(0),
        "ub": None,
    }
    if not aligned:
        return cert
    pairs = tuple(
        sorted({(ch.projection[k], cg.projection[k]) for k in range(len(ch.projection))})
    )
    info = correspondence_info(ch.space, cg.space, pairs)
    dis, mass = info.distortion, info.max_coupling_mass
    cert.update(
        pairs=pairs,
        dis=dis,
        mass=mass,
        ub=max(dis, 2 * (1 - mass)) / 2,
    )
    return cert


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
        sup = sup_diff(h, g)
        cert = _diagonal_certificate(h, g)
        checks = {"codes_aligned": cert["aligned"]}
        ratio = None
        if cert["aligned"]:
            checks["mass_full"] = cert["mass"] == 1
            checks["bound_certified"] = cert["ub"] <= 2 * sup
        inst = {
            "id": f"{kind}-{idx:03d}",
            "pieces": len(h.values) - 1,
            "points_h": cert["codes"][0].space.n,
            "points_g": cert["codes"][1].space.n,
            "sup_diff": _entry(sup),
            "bound": _entry(2 * sup),
            "gp_upper": _entry(cert["ub"]) if cert["ub"] is not None else {},
            "checks": checks,
        }
        if cert["aligned"]:
            gp = gromov_prohorov_detail(*(c.space for c in cert["codes"]), seeds=(cert["pairs"],))
            checks["bound_exact"] = gp.value <= 2 * sup
            checks["search_exact"] = gp.exact
            inst["gp"] = _entry(gp.value)
            if sup > 0:
                ratio = gp.value / (2 * sup)
                inst["ratio"] = _entry(ratio)
        return inst, ratio

    results = [one(idx) for idx in range(count + 1)]
    instances = [inst for inst, _ in results]
    ratios = [r for _, r in results if r is not None]
    summary = {
        "exact_instances": len(ratios),
        "max_ratio": _entry(max(ratios)) if ratios else _entry(Fraction(0)),
    }
    params = {"budget": DEFAULT_SEARCH_BUDGET, "count": count}
    return _finish("lipschitz", seed, params, instances, summary)


# ---------------------------------------------------------------------------
# the comb family: excursion distances shrink, coded-tree distances do not


def run_counterexample(n_list=(2, 3, 4, 6, 8)) -> ExperimentReport:
    ns = tuple(sorted({int(n) for n in n_list}))
    if not ns or ns[0] < 1:
        raise ValidationError("tooth counts must be positive integers")
    if len(ns) < 2:
        # the table's assertions are about off-diagonal pairs
        raise ValidationError(f"need at least two distinct tooth counts, got {ns[0]}")
    combs = {n: comb(n) for n in ns}
    stars = {n: code_excursion(combs[n]).space for n in ns}
    instances = []
    table = {}
    for pos, n in enumerate(ns):
        for m in ns[pos:]:
            gam = d_gamma_detail(combs[n], combs[m])
            lam = d_lambda(combs[n], combs[m])
            exc = gam.value + lam
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


def _max_slope(h):
    return max(
        abs(h.values[k + 1] - h.values[k]) / (h.breakpoints[k + 1] - h.breakpoints[k])
        for k in range(len(h.values) - 1)
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
    instances = []

    peak = max(base_v.values)
    for k in range(schedule + 1):
        factor = Fraction(0) if k == 0 else Fraction(1, 2**k)
        g = pl_excursion(base_v.breakpoints, tuple(v * (1 - factor) for v in base_v.values))
        sup = sup_diff(base_v, g)
        envelope = 2 * sup
        cert = _diagonal_certificate(base_v, g)
        dexc = d_excursion_detail(base_v, g)
        checks = {
            "codes_aligned": cert["aligned"],
            "sup_is_scaled_peak": sup == factor * peak,
        }
        if cert["aligned"]:
            checks["gp_below_envelope"] = cert["ub"] <= envelope
            checks["mass_full"] = cert["mass"] == 1
        checks["dexc_le_twice_sup"] = dexc.hi <= 2 * sup + Fraction(1, 10**8)
        instances.append(
            {
                "id": f"value-{k:02d}",
                "mode": "value",
                "step": k,
                "sup_diff": _entry(sup),
                "envelope": _entry(envelope),
                "gp_upper": _entry(cert["ub"]) if cert["ub"] is not None else {},
                "dexc_hi": _entry(dexc.hi),
                "checks": checks,
            }
        )

    base_b = _two_peak()
    pattern = (Fraction(1, 32), Fraction(-1, 64), Fraction(1, 64))
    shifts0 = (Fraction(0),) + pattern + (Fraction(0),)
    gaps = [
        base_b.breakpoints[j + 1] - base_b.breakpoints[j]
        for j in range(len(base_b.values) - 1)
    ]
    delta0 = max(abs(s) for s in shifts0)
    eta_hat = max(
        abs(shifts0[j + 1] - shifts0[j]) / gaps[j] for j in range(len(gaps))
    )
    slope = _max_slope(base_b)
    e_base = max(4 * slope * delta0, eta_hat)
    for k in range(schedule + 1):
        scale = Fraction(0) if k == 0 else Fraction(2) / 2**k
        bps = tuple(t + s * scale for t, s in zip(base_b.breakpoints, shifts0))
        g = pl_excursion(bps, base_b.values)
        delta_k = delta0 * scale
        envelope = e_base * scale
        cert = _diagonal_certificate(base_b, g)
        dexc = d_excursion_detail(base_b, g)
        checks = {"codes_aligned": cert["aligned"]}
        if cert["aligned"]:
            checks["mass_full"] = cert["mass"] == 1
            if k >= 1:
                checks["gp_below_envelope"] = cert["ub"] <= envelope
            else:
                checks["null_perturbation_zero"] = cert["ub"] == 0
        checks["dexc_le_slope_bound"] = dexc.hi <= (1 + slope) * delta_k + Fraction(
            1, 10**8
        )
        instances.append(
            {
                "id": f"breakpoint-{k:02d}",
                "mode": "breakpoint",
                "step": k,
                "max_shift": _entry(delta_k),
                "envelope": _entry(envelope),
                "gp_upper": _entry(cert["ub"]) if cert["ub"] is not None else {},
                "dexc_hi": _entry(dexc.hi),
                "checks": checks,
            }
        )

    summary = {
        "envelopes_halve": True,  # envelopes are (constant) * 2**(1-k) by construction
        "value_envelope_base": _entry(2 * peak),
        "breakpoint_envelope_base": _entry(e_base),
    }
    params = {"schedule": schedule, "value_base_pieces": len(base_v.values) - 1}
    return _finish("continuity", seed, params, instances, summary)
