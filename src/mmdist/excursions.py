"""Nonnegative excursions on [0, 1]: piecewise linear and piecewise constant.

Both kinds share the invariants h(0) = 0 and h >= 0. Piecewise-constant
excursions carry an explicit value at every breakpoint, required to be at
most the neighbouring piece values (the lower-semicontinuous convention);
the constructor defaults each interior breakpoint to the minimum of its
neighbours and the right endpoint to the last piece value.

`normalize` is the one check of an excursion; every routine reads its
inputs through it. It returns a marked input as it is and validates any
other. It marks (outside equality, hash and repr) and returns an input that
is already normal and holds its fields in tuples, and otherwise marks what
it builds.

Every exact read of an excursion goes through its int form, kept here
alone: `_int_excursions` puts excursions, and any extra times, over one
denominator, and `_on_int_grid` walks h's breakpoints once along ascending
int cuts with no breakpoint strictly between two neighbours. It returns h
at each cut and the one-sided limits of h at the ends of each open piece
between cuts; on such a piece h is constant or linear, so these values
bound it from both sides. `infimum` and `dh` are exact because the path
infimum over [s, t] is the least of them on the grid {s, t} and the
breakpoints between. `_int_diff` reads h - g on the union grid, for
`sup_diff` and `d_lambda`. Fractions are built only for returned values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import ValidationError
from .exact import format_scalar, parse_scalar, scaled_rows
from .spaces import JsonFields, dumps_json, load_document

EXCURSION_FORMAT = "excursion/1"


@dataclass(frozen=True)
class Excursion:
    kind: str  # "pl" | "pc"
    breakpoints: tuple
    values: tuple  # pl: value at each breakpoint; pc: value of each open piece
    breakpoint_values: tuple = None  # pc only
    _normalized: bool = field(default=False, init=False, compare=False, repr=False)


def pl_excursion(breakpoints, values) -> Excursion:
    h = Excursion(
        "pl",
        tuple(parse_scalar(t) for t in breakpoints),
        tuple(parse_scalar(v) for v in values),
    )
    require_valid_excursion(h)
    return h


def pc_excursion(breakpoints, piece_values, breakpoint_values=None) -> Excursion:
    breakpoints = tuple(parse_scalar(t) for t in breakpoints)
    piece_values = tuple(parse_scalar(v) for v in piece_values)
    if breakpoint_values is None:
        m = len(piece_values)
        bvals = [Fraction(0)]
        for k in range(1, m):
            bvals.append(min(piece_values[k - 1], piece_values[k]))
        if m:
            bvals.append(piece_values[-1])
        breakpoint_values = tuple(bvals)
    else:
        breakpoint_values = tuple(parse_scalar(v) for v in breakpoint_values)
    h = Excursion("pc", breakpoints, piece_values, breakpoint_values)
    require_valid_excursion(h)
    return h


def validate_excursion(h: Excursion) -> list:
    violations = []
    bps = h.breakpoints
    if h.kind not in ("pl", "pc"):
        violations.append(f"unknown kind {h.kind!r}")
        return violations
    if len(bps) < 2:
        violations.append("need at least breakpoints 0 and 1")
        return violations
    if bps[0] != 0 or bps[-1] != 1:
        violations.append("breakpoints must start at 0 and end at 1")
    if any(bps[k] >= bps[k + 1] for k in range(len(bps) - 1)):
        violations.append("breakpoints must be strictly increasing")
    if h.kind == "pl":
        if h.breakpoint_values is not None:
            violations.append("pl excursions carry no separate breakpoint values")
        if len(h.values) != len(bps):
            violations.append("pl needs one value per breakpoint")
            return violations
        if h.values[0] != 0:
            violations.append("h(0) must be 0")
        if any(v < 0 for v in h.values):
            violations.append("values must be nonnegative")
    else:
        if len(h.values) != len(bps) - 1:
            violations.append("pc needs one value per piece")
            return violations
        bv = h.breakpoint_values
        if bv is None or len(bv) != len(bps):
            violations.append("pc needs one breakpoint value per breakpoint")
            return violations
        if bv[0] != 0:
            violations.append("h(0) must be 0")
        if any(v < 0 for v in h.values) or any(v < 0 for v in bv):
            violations.append("values must be nonnegative")
        for k, v in enumerate(bv):
            neighbours = []
            if k > 0:
                neighbours.append(h.values[k - 1])
            if k < len(h.values):
                neighbours.append(h.values[k])
            if neighbours and v > min(neighbours):
                violations.append(
                    f"breakpoint value at index {k} exceeds an adjacent piece value"
                )
    return violations


def require_valid_excursion(h: Excursion) -> None:
    violations = validate_excursion(h)
    if violations:
        raise ValidationError(f"invalid excursion: {violations[0]}", violations)


def normalize(h: Excursion) -> Excursion:
    """Drop breakpoints that change nothing; fixed point of itself.

    pl: interior breakpoints where the slope does not change. pc: interior
    breakpoints whose value equals both neighbouring piece values (merging
    the pieces). Needed so that equal functions code to equal trees.
    """
    if h._normalized:
        return h
    require_valid_excursion(h)
    bps, vals, bvals = h.breakpoints, h.values, h.breakpoint_values
    keep = [0]
    for k in range(1, len(bps) - 1):
        if h.kind == "pl":
            left = (vals[k] - vals[k - 1]) * (bps[k + 1] - bps[k])
            right = (vals[k + 1] - vals[k]) * (bps[k] - bps[k - 1])
            if left != right:
                keep.append(k)
        elif not vals[k - 1] == vals[k] == bvals[k]:
            keep.append(k)
    keep.append(len(bps) - 1)
    if len(keep) == len(bps) and all(type(f) is tuple for f in (bps, vals, bvals or ())):
        out = h  # already normal, and its fields cannot change
    elif h.kind == "pl":
        out = Excursion("pl", tuple(bps[k] for k in keep), tuple(vals[k] for k in keep))
    else:
        # a merged run of pieces shares one value; keep[i] indexes its first piece
        out = Excursion(
            "pc",
            tuple(bps[k] for k in keep),
            tuple(vals[k] for k in keep[:-1]),
            tuple(bvals[k] for k in keep),
        )
    object.__setattr__(out, "_normalized", True)  # frozen: set past __init__
    return out


def _int_excursions(*hs, extra=()):
    """The excursions with int fields, and the times `extra` as ints, all
    over one common denominator: (hs, extra, den)."""
    (*rows, (extra,)), den = scaled_rows(
        *[(h.breakpoints, h.values, h.breakpoint_values or ()) for h in hs], [extra]
    )
    return [Excursion(h.kind, b, v, bv or None) for h, (b, v, bv) in zip(hs, rows)], extra, den


def _on_int_grid(h: Excursion, cuts):
    """(points, pieces, m): h read on ascending cuts, in ints and in one walk.

    h carries int fields: its breakpoints over the denominator of the int
    `cuts`, its values over any denominator V. points[k] is h(cuts[k]), a pc
    excursion's breakpoint value at its breakpoints; pieces[k] is the pair
    of one-sided limits of h at the two ends of the open piece (cuts[k],
    cuts[k + 1]). No breakpoint of h may lie strictly inside such a piece.
    Both come back over V * m: a pl read strictly between two breakpoints,
    v0 + (v1 - v0)(t - t0)/(t1 - t0), has a denominator, and m is the lcm
    of those in lowest terms (1 for pc, and for pl wherever each read is a
    multiple of 1 / V, as at a level crossing).
    """
    bps, vals = h.breakpoints, h.values
    pl = h.kind == "pl"
    at_bp = vals if pl else h.breakpoint_values
    last = len(bps) - 1
    reads, piece_of = [], []
    k = 0
    for t in cuts:
        while k < last and bps[k + 1] <= t:
            k += 1
        if t == bps[k]:
            reads.append((at_bp[k], 1))
        elif pl:
            t0, t1, v0 = bps[k], bps[k + 1], vals[k]
            num, den = v0 * (t1 - t0) + (vals[k + 1] - v0) * (t - t0), t1 - t0
            g = gcd(num, den)
            reads.append((num // g, den // g))
        else:
            reads.append((vals[k], 1))
        piece_of.append(k)
    m = lcm(*(den for _, den in reads))
    points = [num * (m // den) for num, den in reads]
    if pl:
        return points, list(zip(points, points[1:])), m
    return points, [(vals[k], vals[k]) for k in piece_of[:-1]], m


def _int_diff(h: Excursion, g: Excursion):
    """h - g read on the union of their breakpoints as `_on_int_grid` reads
    h, in ints: (cuts, points, pieces, T, V), the cuts over T, a common
    denominator of h and g, and the reads over V, a multiple of T."""
    (h, g), _, den = _int_excursions(h, g)
    cuts = sorted(set(h.breakpoints).union(g.breakpoints))
    h_points, h_pieces, mh = _on_int_grid(h, cuts)
    g_points, g_pieces, mg = _on_int_grid(g, cuts)
    m = lcm(mh, mg)
    sh, sg = m // mh, m // mg
    points = [a * sh - b * sg for a, b in zip(h_points, g_points)]
    pieces = [(a * sh - c * sg, b * sh - d * sg) for (a, b), (c, d) in zip(h_pieces, g_pieces)]
    return cuts, points, pieces, den, den * m


def _unit_time(t, name="t"):
    """t parsed and checked to lie in [0, 1]; the message names it `name`."""
    t = parse_scalar(t)
    if not (0 <= t <= 1):
        raise ValidationError(f"{name} = {t} outside [0, 1]")
    return t


def _read_between(h: Excursion, s, t):
    """(h(s), h(t), inf of h over [s, t], den) for a normalized h and times
    s <= t, the three over den, read in one walk of {s, t} and the
    breakpoints between."""
    (h,), (s, t), den = _int_excursions(h, extra=(s, t))
    grid = sorted({s, t}.union(b for b in h.breakpoints if s < b < t))
    points, pieces, m = _on_int_grid(h, grid)
    return points[0], points[-1], min(chain(points, *pieces)), den * m


def evaluate(h: Excursion, t):
    t = _unit_time(t)
    (h,), cuts, den = _int_excursions(normalize(h), extra=(t,))
    (point,), _, m = _on_int_grid(h, cuts)
    return Fraction(point, den * m)


def infimum(h: Excursion, s, t):
    """Exact inf of h over the closed interval between s and t."""
    h = normalize(h)
    s, t = sorted((parse_scalar(s), parse_scalar(t)))
    if not (0 <= s and t <= 1):
        raise ValidationError("interval must sit inside [0, 1]")
    _, _, low, den = _read_between(h, s, t)
    return Fraction(low, den)


def dh(h: Excursion, s, t):
    """Tree distance induced by h: h(s) + h(t) - 2 * inf over [s, t]."""
    h = normalize(h)
    s, t = _unit_time(s, "s"), _unit_time(t)
    at_s, at_t, low, den = _read_between(h, min(s, t), max(s, t))
    return Fraction(at_s + at_t - 2 * low, den)


def sup_diff(h: Excursion, g: Excursion):
    """True sup of |h - g| over [0, 1] (not just the essential sup)."""
    # on each open piece of the union grid h - g is linear, so |h - g| is
    # extremal at the grid points or at the piece-end limits
    _, points, pieces, _, den = _int_diff(normalize(h), normalize(g))
    return Fraction(max(map(abs, chain(points, *pieces))), den)


# ---------------------------------------------------------------------------
# builders


def tent() -> Excursion:
    """Single peak of height 1 at t = 1/2."""
    return pl_excursion((0, Fraction(1, 2), 1), (0, 1, 0))


def zero_excursion(kind: str = "pl") -> Excursion:
    if kind == "pl":
        return pl_excursion((0, 1), (0, 0))
    return pc_excursion((0, 1), (0,), (0, 0))


def is_count(n) -> bool:
    """Whether `n` is an integer >= 1 of any numeric type but bool: 3, 3.0
    and Fraction(3) are counts; True, 2.5, nan, inf and "3" are not."""
    if isinstance(n, bool):
        return False
    try:
        return n == int(n) and n >= 1
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        return False


def comb(n: int) -> Excursion:
    """Value 1 except at the n+1 equally spaced zeros k/n (pc kind); n is
    a count in the sense of `is_count`."""
    if not is_count(n):
        raise ValidationError(f"comb needs an integer n >= 1, got {n!r}")
    n = int(n)
    bps = tuple(Fraction(k, n) for k in range(n + 1))
    return pc_excursion(bps, (Fraction(1),) * n, (Fraction(0),) * (n + 1))


def step_one() -> Excursion:
    """The discontinuous pointwise limit of comb(n): 1 on (0, 1], 0 at 0."""
    return pc_excursion((0, 1), (Fraction(1),), (Fraction(0), Fraction(1)))


def random_excursion(
    rng: random.Random,
    kind: str = None,
    max_pieces: int = 6,
    time_den: int = 12,
    value_den: int = 4,
) -> Excursion:
    """Seeded random excursion on rational grids (deterministic per rng state)."""
    if kind is None:
        kind = rng.choice(("pl", "pc"))
    n_interior = rng.randint(0, max(0, max_pieces - 1))
    interior = sorted(rng.sample(range(1, time_den), min(n_interior, time_den - 1)))
    bps = [Fraction(0)] + [Fraction(k, time_den) for k in interior] + [Fraction(1)]
    if kind == "pl":
        values = [Fraction(0)] + [
            Fraction(rng.randint(0, value_den), value_den) for _ in range(len(bps) - 1)
        ]
        return pl_excursion(bps, values)
    piece_values = [
        Fraction(rng.randint(1, value_den), value_den) for _ in range(len(bps) - 1)
    ]
    bvals = [Fraction(0)]
    for k in range(1, len(bps) - 1):
        cap = min(piece_values[k - 1], piece_values[k])
        bvals.append(cap if rng.random() < 0.6 else cap * Fraction(rng.randint(0, value_den), value_den))
    bvals.append(piece_values[-1])
    return pc_excursion(bps, piece_values, bvals)


# ---------------------------------------------------------------------------
# serialization


def excursion_to_obj(h: Excursion) -> dict:
    obj = {
        "format": EXCURSION_FORMAT,
        "kind": h.kind,
        "breakpoints": [format_scalar(t) for t in h.breakpoints],
        "values": [format_scalar(v) for v in h.values],
    }
    if h.kind == "pc":
        obj["breakpoint_values"] = [format_scalar(v) for v in h.breakpoint_values]
    return obj


def excursion_from_obj(obj, check: bool = True) -> Excursion:
    if not isinstance(obj, dict):
        raise ValidationError("excursion document must be a JSON object")
    if obj.get("format") != EXCURSION_FORMAT:
        raise ValidationError(f"unsupported format: {obj.get('format')!r}")
    kind = obj.get("kind")
    if kind not in ("pl", "pc"):
        raise ValidationError(f"unknown kind {kind!r}")
    for key in ("breakpoints", "values"):
        if key not in obj:
            raise ValidationError(f"missing field: {key}")
    fields = JsonFields()
    bps = fields.scalars(obj["breakpoints"], "breakpoints")
    values = fields.scalars(obj["values"], "values")
    bv = obj.get("breakpoint_values") if kind == "pc" else None
    if bv is not None:
        bv = fields.scalars(bv, "breakpoint_values")
    fields.check()
    if kind == "pc" and bv is None:
        return pc_excursion(bps, values)
    h = Excursion(kind, bps, values, bv)
    if check:
        require_valid_excursion(h)
    return h


def load_excursion(path, check: bool = True) -> Excursion:
    return excursion_from_obj(load_document(path), check)


def save_excursion(path, h: Excursion) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_json(excursion_to_obj(h)))
