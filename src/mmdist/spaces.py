"""Finite metric measure spaces: validation, canonical form, sampling, I/O.

A space is a labelled finite pseudometric with a probability weight vector.
Zero off-diagonal distances and zero weights are valid input; `canonicalize`
removes both, which is the representative form every distance routine works
on (distances here are invariants of the measure-preserving-isometry class).

Every entry of a space is exact. `mm_space`, the mmspace/1 parse layer,
converts each one with `exact.parse_scalar` and names each malformed input
by its JSON path. A space built by hand with int or float entries converts
exactly in `canonicalize`, which every distance routine calls first.
`canonicalize` marks its output (outside equality, hash and repr) and returns
a marked space as it is; any other space, even an equal one, is validated.
Validation has no tolerance: `metric_violations`, the one metric-axiom
check, tests a matrix as ints over its common denominator (floats at their
exact binary values); messages quote the entries as given. `require_valid`
hands back the int form its checks read, the matrix over one denominator
and the weights over another, so a caller that goes on to compute with
ints does not scale the space again.

The triangle test is packed (a SIMD-within-a-register test, Lamport 1975,
"Multiple byte processing with full-word instructions"). Each row of a
nonnegative int matrix with largest entry M becomes one Python int of n
fields of w = bit_length(2M) + 1 bits, so the guard bit of a field,
G = 2^(w-1), exceeds 2M. For rows i and k, with c = m[i][k], every field
of G - m[i][j] + m[k][j] + c lies in [G - M, G + 2M], inside (0, 2G): no
field borrows from or carries into its neighbour, so one big-int add and
one mask test all j at once, exactly, and the guard bit of field j is set
iff m[i][j] <= m[i][k] + m[k][j]. So n^3 interpreted comparisons become
n^2 big-int operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .exact import format_scalar, parse_scalar, scaled, scaled_rows

MMSPACE_FORMAT = "mmspace/1"


@dataclass(frozen=True)
class FiniteMMSpace:
    labels: tuple
    dist: tuple
    weights: tuple
    _canonical: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)


class JsonFields:
    """Converts the fields of one JSON document, naming each bad one by its path.

    `items` and `scalars` record an error such as `dist[0][1]: invalid
    literal "x"` and return nothing for it; `check` then raises every
    recorded error as one ValidationError. A path is built only for a field
    that fails. Each distinct string literal is parsed once per document: a
    valid n-point matrix is symmetric with a zero diagonal, so at most
    n(n-1)/2 + 1 of its n^2 literals differ. The memo is keyed on str alone,
    because `True == 1` and a bool must still fail. It lives as long as this
    object, unless the caller passes its own dict as `literals` to share it
    between documents read together: their equal literals then parse to one
    Fraction object, and comparing them stops at identity.
    """

    def __init__(self, literals=None):
        self.errors = []
        self._parsed = {} if literals is None else literals

    def items(self, value, path):
        if isinstance(value, (list, tuple)):
            return enumerate(value)
        self.errors.append(f"{path}: expected a list, got {json.dumps(value, default=str)}")
        return ()

    def _parse(self, value):
        """`parse_scalar(value)`, or None where it fails; a str is parsed once."""
        if not isinstance(value, str):
            return _scalar_or_none(value)
        if value not in self._parsed:
            self._parsed[value] = _scalar_or_none(value)
        return self._parsed[value]

    def scalars(self, value, path):
        out = []
        for i, x in self.items(value, path):
            q = self._parse(x)
            if q is None:
                self.errors.append(f"{path}[{i}]: invalid literal {json.dumps(x, default=str)}")
            out.append(q)
        return tuple(out)

    def check(self) -> None:
        if self.errors:
            raise ValidationError(self.errors[0], self.errors)


def _scalar_or_none(value):
    try:
        return parse_scalar(value)
    except (ValueError, ZeroDivisionError):
        return None


def mm_space(labels, dist, weights, literals=None) -> FiniteMMSpace:
    """Build a FiniteMMSpace from lists or tuples, parsing every scalar exactly.

    A field that is not a list, or a scalar that does not parse, raises
    ValidationError naming each one by its JSON path. `literals` is the
    literal memo of `JsonFields`, for a caller that shares it.
    """
    fields = JsonFields(literals)
    space = FiniteMMSpace(
        labels=tuple(str(l) for _, l in fields.items(labels, "labels")),
        dist=tuple(fields.scalars(row, f"dist[{i}]") for i, row in fields.items(dist, "dist")),
        weights=fields.scalars(weights, "weights"),
    )
    fields.check()
    return space


def metric_violations(dist) -> list:
    """Metric-axiom violations of a square matrix as (kind, i, j, k) tuples.

    Row by row: "diagonal" (i, i), then "negative" and "asymmetric" for each
    j > i; then every "triangle" dist[i][j] > dist[i][k] + dist[k][j] in
    (i, j, k) order. The matrix goes over its common denominator and is
    tested as ints (see `_is_metric`); it is enumerated only when it fails.
    """
    (m,), _ = scaled_rows(dist)
    return _row_violations(m)


def _row_violations(m) -> list:
    """`metric_violations` of a matrix already scaled to int rows `m`."""
    if _is_metric(m):
        return []
    n = len(m)
    out = []
    for i in range(n):
        if m[i][i]:
            out.append(("diagonal", i, i, None))
        for j in range(i + 1, n):
            if m[i][j] < 0:
                out.append(("negative", i, j, None))
            if m[i][j] != m[j][i]:
                out.append(("asymmetric", i, j, None))
    for i, di in enumerate(m):
        for j in range(n):
            for k, dk in enumerate(m):
                if di[j] > di[k] + dk[j]:
                    out.append(("triangle", i, j, k))
    return out


def _is_metric(m) -> bool:
    """Whether int rows `m` are a pseudometric.

    Zero diagonal, nonnegative and symmetric entries, then the packed
    triangle test of the module docstring: with each row packed into one
    int of w = bit_length(2 max) + 1 bit fields, rows i and k pass iff
    every guard bit G of (G - row i) + row k + m[i][k] per field is set.
    Each field stays inside (0, 2G), so none borrows or carries and the
    test is exact.
    """
    if not m:
        return True
    if any(row[i] for i, row in enumerate(m)) or min(map(min, m)) < 0:
        return False
    if list(map(list, zip(*m))) != m:
        return False
    w = (2 * max(map(max, m))).bit_length() + 1
    ones = ((1 << (w * len(m))) - 1) // ((1 << w) - 1)  # a 1 in every field
    guards = ones << (w - 1)
    packed = []
    for row in m:
        p = 0
        for x in reversed(row):
            p = (p << w) | x
        packed.append(p)
    for row, p in zip(m, packed):
        q = guards - p
        for c, pk in zip(row, packed):
            if (q + pk + c * ones) & guards != guards:
                return False
    return True


_SPACE_MESSAGES = {
    "diagonal": "dist[{i}][{i}] = {v}, expected 0",
    "negative": "dist[{i}][{j}] is negative: {v}",
    "asymmetric": "dist[{i}][{j}] != dist[{j}][{i}]",
    "triangle": "triangle violation: dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]",
}


def _checked(space: FiniteMMSpace):
    """(violations, ints): `validate`'s list, and the int form its checks
    read, (rows, D, weights, W) with the matrix over D and the weights over
    W; ints is None when the dimensions do not match."""
    violations = []
    n = len(space.labels)
    if len(space.weights) != n:
        violations.append(
            f"weights length {len(space.weights)} != number of labels {n}"
        )
    if len(space.dist) != n:
        violations.append(f"dist has {len(space.dist)} rows, expected {n}")
    bad_rows = [i for i, row in enumerate(space.dist) if len(row) != n]
    for i in bad_rows:
        violations.append(f"dist row {i} has {len(space.dist[i])} entries, expected {n}")
    if violations:
        return violations, None

    weights, W = scaled(space.weights)
    violations += [
        f"weight {i} is negative: {w}"
        for i, (w, x) in enumerate(zip(space.weights, weights))
        if x < 0
    ]
    if sum(weights) != W:
        violations.append(f"weights sum to {Fraction(sum(weights), W)}, expected 1")
    (rows,), D = scaled_rows(space.dist)
    d = space.dist
    violations += [
        _SPACE_MESSAGES[kind].format(i=i, j=j, k=k, v=d[i][j])
        for kind, i, j, k in _row_violations(rows)
    ]
    return violations, (rows, D, weights, W)


def validate(space: FiniteMMSpace) -> list:
    """Return a list of human-readable violations, empty when valid.

    Dimension mismatches are reported (not raised) and suppress the checks
    that would index out of range. Then each negative weight and a weight
    sum other than 1, then the metric axioms (`metric_violations`). Every
    check is exact, with no tolerance.
    """
    return _checked(space)[0]


def require_valid(space: FiniteMMSpace):
    """Raise ValidationError on the first violation of `validate`; return
    the int form the checks read, (rows, D, weights, W): the matrix as int
    rows over D and the weights as ints over W."""
    violations, ints = _checked(space)
    if violations:
        raise ValidationError(
            f"invalid space: {violations[0]} ({len(violations)} violation(s))",
            violations,
        )
    return ints


def is_canonical(space: FiniteMMSpace) -> bool:
    if any(w <= 0 for w in space.weights):
        return False
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] <= 0:
                return False
    return True


def _class_roots(n, pairs) -> list:
    """Each of n points' class root once every pair (i, j) in `pairs` is
    merged, transitively; a root is the smallest index of its class."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def canonicalize(space: FiniteMMSpace) -> FiniteMMSpace:
    """Merge distance-0 pairs (summing weights) and drop weight-0 points.

    Representatives keep the smallest original index and its label; order is
    by representative index. Every entry of the result is a Fraction: int
    and float entries of a hand-built space convert exactly here.
    """
    if space._canonical:
        return space
    require_valid(space)
    d, n = space.dist, space.n
    close = ((i, j) for i in range(n) for j in range(i + 1, n) if d[i][j] == 0)
    class_weight = {}
    for r, w in zip(_class_roots(n, close), map(parse_scalar, space.weights)):
        class_weight[r] = class_weight.get(r, 0) + w
    reps = sorted(r for r, w in class_weight.items() if w > 0)
    out = FiniteMMSpace(
        labels=tuple(space.labels[r] for r in reps),
        dist=tuple(tuple(parse_scalar(d[a][b]) for b in reps) for a in reps),
        weights=tuple(class_weight[r] for r in reps),
    )
    return _mark_canonical(out)


def _mark_canonical(space: FiniteMMSpace) -> FiniteMMSpace:
    """Mark a space its maker knows is its own valid canonical form."""
    object.__setattr__(space, "_canonical", True)  # frozen: set past __init__
    return space


def are_isomorphic(a: FiniteMMSpace, b: FiniteMMSpace) -> bool:
    """Measure-preserving isometry test between canonical forms (backtracking)."""
    a = canonicalize(a)
    b = canonicalize(b)
    if a.n != b.n:
        return False
    if sorted(a.weights) != sorted(b.weights):
        return False
    n = a.n
    assigned = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or a.weights[i] != b.weights[j]:
                continue
            if any(a.dist[i][k] != b.dist[j][assigned[k]] for k in range(i)):
                continue
            assigned[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            used[j] = False
            assigned[i] = -1
        return False

    return extend(0)


def sample_mm_space(seed: int, n_max: int = 5, diam_max=Fraction(1)) -> FiniteMMSpace:
    """Seeded random space with rational entries, canonical by construction.

    Distances start on a coarse grid diam_max * k/den with int k >= 1 and
    are closed under min-plus (Floyd-Warshall): positive off the diagonal,
    symmetric and metric exactly. The closure runs on the ints k, which is
    exact because scaling by diam_max / den > 0 commutes with min-plus; each
    distinct k is scaled to a Fraction once. Weights are positive and sum to
    1 and every entry is a Fraction, so the space is marked canonical. Same
    seed, same space.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    diam_max = parse_scalar(diam_max)
    if diam_max <= 0:
        raise ValidationError("diam_max must be positive")
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    den = rng.choice((2, 3, 4, 6, 8, 12))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, den)
    for k in range(n):
        dk = d[k]
        for row in d:
            to_k = row[k]
            for j in range(n):
                if to_k + dk[j] < row[j]:
                    row[j] = to_k + dk[j]
    unit_num, unit_den = diam_max.numerator, diam_max.denominator * den  # diam_max / den
    scale = {k: Fraction(unit_num * k, unit_den) for k in {k for row in d for k in row}}
    raw = [rng.randint(1, 8) for _ in range(n)]
    total = sum(raw)
    weights = tuple(Fraction(r, total) for r in raw)
    space = FiniteMMSpace(
        labels=tuple(f"p{i}" for i in range(n)),
        dist=tuple(tuple(scale[k] for k in row) for row in d),
        weights=weights,
    )
    return _mark_canonical(space)


# ---------------------------------------------------------------------------
# serialization


def space_to_obj(space: FiniteMMSpace) -> dict:
    return {
        "format": MMSPACE_FORMAT,
        "labels": list(space.labels),
        "dist": [[format_scalar(x) for x in row] for row in space.dist],
        "weights": [format_scalar(w) for w in space.weights],
    }


def space_from_obj(obj, check: bool = True, literals=None) -> FiniteMMSpace:
    if not isinstance(obj, dict):
        raise ValidationError("space document must be a JSON object")
    if obj.get("format") != MMSPACE_FORMAT:
        raise ValidationError(f"unsupported format: {obj.get('format')!r}")
    missing = [f"missing field: {key}" for key in ("labels", "dist", "weights") if key not in obj]
    if missing:
        raise ValidationError(missing[0], missing)
    space = mm_space(obj["labels"], obj["dist"], obj["weights"], literals)
    if check:
        require_valid(space)
    return space


def dumps_json(obj) -> str:
    """Canonical JSON rendering used for every artifact this package writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_int(literal: str):
    try:
        return int(literal)
    except ValueError:  # past the int string digit limit: JsonFields names it
        return literal


def loads_document(text: str):
    # parse_float=str defers float conversion so "0.1" can become 1/10 exactly
    return json.loads(text, parse_float=str, parse_int=_json_int)


def load_document(path):
    """The JSON document in the file at `path`; text that is not UTF-8, or
    nested past the parser's recursion limit, is invalid."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8 text ({exc.reason}): {path}") from None
    try:
        return loads_document(text)
    except RecursionError:  # json recurses once per nested array or object
        raise ValidationError(f"JSON nested too deeply: {path}") from None


def load_space(path, check: bool = True, literals=None) -> FiniteMMSpace:
    return space_from_obj(load_document(path), check, literals)


def save_space(path, space: FiniteMMSpace) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_json(space_to_obj(space)))
