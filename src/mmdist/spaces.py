"""Finite metric measure spaces: validation, canonical form, sampling, I/O.

A space is a labelled finite pseudometric with a probability weight vector.
Zero off-diagonal distances and zero weights are valid input; `canonicalize`
removes both, which is the representative form every distance routine works
on (distances here are invariants of the measure-preserving-isometry class).

Every entry of a space is exact, and every routine on the hot path works on
a space's int form, (rows, D, weights, W): the matrix as int rows over D and
the weights as ints over W, each the least common denominator of its
entries. This module alone decides that form. `read_ints` is the one
mmspace/1 reader: it reads a document's fields straight to it, parsing each
distinct literal once to a reduced int pair (`exact.parse_ratio`) and naming
each malformed input by its JSON path. A label is a string or a number.

One maker, `_made`, builds a FiniteMMSpace from an int form: it reduces the
form by one gcd, builds one Fraction per distinct value and, for a space
its caller has checked, attaches the form (outside equality, hash and repr).
The reader (`mm_space`, `space_from_obj`), `sample_mm_space`,
`canonicalize` and the excursion coder all build through it, so a space
that carries its form is a checked one. `int_form` reads the carried form,
or scales a hand-built space's entries (int and float entries convert
exactly) when it carries none; `require_valid` returns the form, checking
the space first when it carries none; `paired_forms` puts two forms over
one denominator each, which is what the box search and the glue read.
`canonicalize` and the coder share one quotient, `_quotient`: on a checked
pseudometric, distance 0 is an equivalence relation, so each point's class
is read off its row (its first zero), and the classes are merged and
summed in ints. Its output is marked canonical; a marked space comes back
as it is. `int_violations` is the one check of an int form, so `dist
prohorov` reads, checks and scans its files without a Fraction per entry.
Validation has no tolerance: `metric_violations`, the one metric-axiom
check, tests a matrix as ints over its common denominator; messages quote
a space's entries as given, and an int form's by their exact values.

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
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import SizeError, ValidationError
from .exact import format_scalar, parse_ratio, parse_scalar, scaled, scaled_rows

MMSPACE_FORMAT = "mmspace/1"
_LISTS = (list, tuple)  # a JSON array loads as a list; the Python API also takes tuples
# sample_mm_space fills an n x n matrix and closes it in n^3 steps: n = 200
# takes 0.55 s on a 2-core host (n = 100, 0.06 s; n = 300, 1.9 s), ten times
# the largest n_max the tests, demos and the exact frontier use (20)
MAX_SAMPLE_POINTS = 200


@dataclass(frozen=True)
class FiniteMMSpace:
    labels: tuple
    dist: tuple
    weights: tuple
    _canonical: bool = field(default=False, init=False, compare=False, repr=False)
    # the int form (rows, D, weights, W) of a checked space, else None
    _form: tuple = field(default=None, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)


class JsonFields:
    """Converts the fields of one JSON document, naming each bad one by its path.

    `items` and `scalars` record an error such as `dist[0][1]: invalid
    literal "x"` and return nothing for it; `check` then raises every
    recorded error as one ValidationError. A path is built only for a field
    that fails. Excursion documents are read with it, each scalar to a
    Fraction; a space document is read to ints by `read_ints`, which walks
    it with this class only to name what failed.
    """

    def __init__(self):
        self.errors = []

    def items(self, value, path):
        if isinstance(value, _LISTS):
            return enumerate(value)
        self.errors.append(f"{path}: expected a list, got {json.dumps(value, default=str)}")
        return ()

    def scalars(self, value, path):
        out = []
        for i, x in self.items(value, path):
            try:
                out.append(parse_scalar(x))
            except (ValueError, ZeroDivisionError):
                self.errors.append(f"{path}[{i}]: invalid literal {json.dumps(x, default=str)}")
                out.append(None)
        return tuple(out)

    def check(self) -> None:
        if self.errors:
            raise ValidationError(self.errors[0], self.errors)


def _label(value):
    """A label as str, or None when it is not one: a string or a number
    (an int or a float, never a bool)."""
    if isinstance(value, str) or isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return None


def read_ints(labels, dist, weights, literals=None):
    """A space's fields in int form: (labels, rows, D, weights, W).

    Labels become a tuple of str; the matrix becomes int rows over D and
    the weights ints over W, each the least common denominator of its own
    entries in lowest terms. Each distinct literal is parsed once, to a
    reduced (num, den) pair (`exact.parse_ratio`), and each entry is then
    one dict lookup: no Fraction is built. `literals` is that literal ->
    pair table, for a caller that reads several documents in one command
    and parses a literal they share once. Shapes are not checked here
    (`int_violations` reports them). A field that is not a list, a label
    that is not a string or a number, and a literal that does not parse
    raise one ValidationError naming each by its JSON path, in document
    order.
    """
    names = tuple(map(_label, labels)) if isinstance(labels, _LISTS) else None
    scales = None
    if (
        names is not None
        and None not in names
        and isinstance(dist, _LISTS)
        and all(isinstance(field, _LISTS) for field in (*dist, weights))
    ):
        scales = _scales(dist, weights, {} if literals is None else literals)
    if scales is None:
        fields = JsonFields()
        for i, label in fields.items(labels, "labels"):
            if _label(label) is None:
                fields.errors.append(
                    f"labels[{i}]: expected a string or a number, "
                    f"got {json.dumps(label, default=str)}"
                )
        for i, row in fields.items(dist, "dist"):
            fields.scalars(row, f"dist[{i}]")
        fields.scalars(weights, "weights")
        fields.check()
        raise AssertionError("unreachable: a field that fails is named")
    (dist_ints, D), (weight_ints, W) = scales
    rows = [list(map(dist_ints.__getitem__, row)) for row in dist]
    return names, rows, D, list(map(weight_ints.__getitem__, weights)), W


def _scales(dist, weights, ratios):
    """((ints, D), (ints, W)): for the matrix, D is the lcm of its entries'
    reduced denominators and `ints` maps each distinct entry to its int
    over D; the same for the weights. None when an entry does not parse.
    `ratios`, the literal -> (num, den) table, gains each literal it lacks."""
    try:
        dist_keys, weight_keys = set().union(*dist), set(weights)
        keys = dist_keys | weight_keys
        for x in keys.difference(ratios):
            ratios[x] = parse_ratio(x)
        if not all(type(x) is str for x in keys):
            # a set keeps one of equal keys (True == 1 == 1.0), so each
            # entry that is not a str is parsed where it stands: a bool fails
            for field in (*dist, weights):
                for x in field:
                    if type(x) is not str:
                        parse_ratio(x)
    except (TypeError, ValueError, ZeroDivisionError):  # TypeError: a list or an object
        return None
    out = []
    for field_keys in (dist_keys, weight_keys):
        den = math.lcm(*(ratios[x][1] for x in field_keys))
        out.append(({x: num * (den // d) for x in field_keys for num, d in (ratios[x],)}, den))
    return out


def _least(rows, den):
    """(int rows, den, Fraction rows) of int rows over `den`, reduced by one
    gcd to their least common denominator; one Fraction per distinct value."""
    values = set().union(*rows)
    g = math.gcd(den, *values)
    if g > 1:
        rows, den = [[x // g for x in row] for row in rows], den // g
        values = {x // g for x in values}
    exact = {x: Fraction(x, den) for x in values}
    return rows, den, tuple(tuple(map(exact.__getitem__, row)) for row in rows)


def _made(labels, rows, D, weights, W, checked=True, canonical=False) -> FiniteMMSpace:
    """The one maker: the space of int `rows` over D and int `weights` over W.

    The form is reduced to its least denominators, so it equals
    `scaled_rows`/`scaled` of the space's own entries, and is attached when
    the caller has `checked` it; a `canonical` space is marked so too.
    """
    rows, D, dist = _least(rows, D)
    (weights,), W, (exact,) = _least([weights], W)
    space = FiniteMMSpace(tuple(labels), dist, exact)
    if checked:  # frozen: set past __init__
        object.__setattr__(space, "_form", (rows, D, weights, W))
        object.__setattr__(space, "_canonical", canonical)
    return space


def mm_space(labels, dist, weights) -> FiniteMMSpace:
    """Build a checked FiniteMMSpace from lists or tuples, parsing every
    scalar exactly.

    Read through `read_ints`: a field that is not a list, a label that is
    not a string or a number, or a scalar that does not parse raises
    ValidationError naming each one by its JSON path, and so does a space
    that is not valid (`int_violations`). Equal entries share one Fraction.
    """
    ints = read_ints(labels, dist, weights)
    raise_invalid(int_violations(ints))
    return _made(*ints)


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


def _shape_violations(n, dist, weights) -> list:
    """Dimension mismatches of a matrix and a weight vector against n labels."""
    violations = []
    if len(weights) != n:
        violations.append(f"weights length {len(weights)} != number of labels {n}")
    if len(dist) != n:
        violations.append(f"dist has {len(dist)} rows, expected {n}")
    violations += [
        f"dist row {i} has {len(row)} entries, expected {n}"
        for i, row in enumerate(dist)
        if len(row) != n
    ]
    return violations


def _value_violations(rows, D, weights, W, given=None) -> list:
    """Weight and metric-axiom violations of a square matrix as int rows over
    D and weights as ints over W. Messages quote the entries in `given`, a
    space's own (dist, weights), or else their exact values."""
    negative = [i for i, x in enumerate(weights) if x < 0]
    total = sum(weights)
    metric = _row_violations(rows)
    if not (negative or total != W or metric):
        return []
    dist, quoted = given or (_least(rows, D)[2], _least([weights], W)[2][0])
    violations = [f"weight {i} is negative: {quoted[i]}" for i in negative]
    if total != W:
        violations.append(f"weights sum to {Fraction(total, W)}, expected 1")
    violations += [
        _SPACE_MESSAGES[kind].format(i=i, j=j, k=k, v=dist[i][j]) for kind, i, j, k in metric
    ]
    return violations


def validate(space: FiniteMMSpace) -> list:
    """Return a list of human-readable violations, empty when valid.

    Dimension mismatches are reported (not raised) and suppress the checks
    that would index out of range. Then each negative weight and a weight
    sum other than 1, then the metric axioms (`metric_violations`), all on
    the space's int form (`int_form`), with its entries quoted as given.
    Every check is exact, with no tolerance.
    """
    return int_violations((space.labels, *int_form(space)), (space.dist, space.weights))


def int_violations(ints, given=None) -> list:
    """The one check of a space's int form, (labels, rows, D, weights, W) as
    `read_ints` gives it: `validate`'s messages, in its order, quoting the
    entries in `given`, a space's own (dist, weights), or else their exact
    values."""
    labels, rows, D, weights, W = ints
    return _shape_violations(len(labels), rows, weights) or _value_violations(
        rows, D, weights, W, given
    )


def raise_invalid(violations) -> None:
    """Raise ValidationError on the first of `violations`, if any."""
    if violations:
        raise ValidationError(
            f"invalid space: {violations[0]} ({len(violations)} violation(s))",
            violations,
        )


def int_form(space: FiniteMMSpace):
    """A space's int form, (rows, D, weights, W), each over its least common
    denominator: the form the space carries, or else its entries scaled
    exactly (`scaled_rows`, `scaled`; a float at its binary value), which
    checks nothing."""
    if space._form is not None:
        return space._form
    (rows,), D = scaled_rows(space.dist)
    return (rows, D, *scaled(space.weights))


def require_valid(space: FiniteMMSpace):
    """A valid space's int form (`int_form`). A space that carries none has
    not been checked: ValidationError on the first violation of `validate`."""
    form = space._form
    if form is None:
        form = int_form(space)
        raise_invalid(int_violations((space.labels, *form), (space.dist, space.weights)))
    return form


def paired_forms(form_a, form_b):
    """Two int forms over one distance denominator, D = lcm(D_a, D_b), and
    one weight denominator, W = lcm(W_a, W_b): ((da, db), D, (wa, wb), W).
    On forms at their least denominators this is `scaled_rows(A.dist,
    B.dist)` and `scaled(A.weights + B.weights)` split at A's points."""
    (ra, Da, wa, Wa), (rb, Db, wb, Wb) = form_a, form_b
    D, W = math.lcm(Da, Db), math.lcm(Wa, Wb)
    (wa,), (wb,) = _times([wa], W // Wa), _times([wb], W // Wb)
    return (_times(ra, D // Da), _times(rb, D // Db)), D, (wa, wb), W


def _times(rows, k):
    return rows if k == 1 else [[x * k for x in row] for row in rows]


def is_canonical(space: FiniteMMSpace) -> bool:
    if any(w <= 0 for w in space.weights):
        return False
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] <= 0:
                return False
    return True


def _quotient(labels, rows, D, weights, W):
    """The quotient of a checked int form by distance 0: (space, roots, reps).

    On a pseudometric, d(i, j) = 0 is an equivalence relation (the triangle
    inequality makes it transitive), so the first zero in row i is the
    smallest point of i's class: `roots[i]`. Each class's weight is summed,
    classes of weight 0 are dropped, and `reps`, the kept roots in
    ascending order, keep their labels; the space is built from ints
    (`_made`) and marked canonical.
    """
    roots = [row.index(0) for row in rows]
    class_weight = [0] * len(rows)
    for r, w in zip(roots, weights):
        class_weight[r] += w
    reps = [r for r, w in enumerate(class_weight) if w > 0]
    space = _made(
        [labels[r] for r in reps],
        [[rows[a][b] for b in reps] for a in reps],
        D,
        [class_weight[r] for r in reps],
        W,
        canonical=True,
    )
    return space, roots, reps


def canonicalize(space: FiniteMMSpace) -> FiniteMMSpace:
    """Merge distance-0 pairs (summing weights) and drop weight-0 points.

    Representatives keep the smallest original index and its label; order is
    by representative index. The classes are read off the checked int form
    (`require_valid`) and merged and summed in ints (`_quotient`), so every
    entry is a Fraction: int and float entries of a hand-built space
    convert exactly. A space marked canonical comes back as it is.
    """
    if space._canonical:
        return space
    return _quotient(space.labels, *require_valid(space))[0]


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
    exact because scaling by diam_max / den > 0 commutes with min-plus, and
    the ints are the space's int form, over diam_max's denominator times
    den (`_made`). Weights are positive and sum to 1, so the space is
    marked canonical. Same seed, same space. An n_max above
    MAX_SAMPLE_POINTS raises SizeError before anything is drawn.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    if n_max > MAX_SAMPLE_POINTS:
        raise SizeError(f"n_max {n_max} exceeds the sampling cap {MAX_SAMPLE_POINTS}")
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
    p, q = diam_max.as_integer_ratio()  # k on the grid is k p / (q den)
    rows = d if p == 1 else [[p * k for k in row] for row in d]
    raw = [rng.randint(1, 8) for _ in range(n)]
    return _made([f"p{i}" for i in range(n)], rows, q * den, raw, sum(raw), canonical=True)


# ---------------------------------------------------------------------------
# serialization


def space_to_obj(space: FiniteMMSpace) -> dict:
    return {
        "format": MMSPACE_FORMAT,
        "labels": list(space.labels),
        "dist": [[format_scalar(x) for x in row] for row in space.dist],
        "weights": [format_scalar(w) for w in space.weights],
    }


def ints_from_obj(obj, check: bool = True, literals=None):
    """An mmspace/1 document in the int form of `read_ints` (which see for
    `literals`), checked with `int_violations` unless `check` is false."""
    if not isinstance(obj, dict):
        raise ValidationError("space document must be a JSON object")
    if obj.get("format") != MMSPACE_FORMAT:
        raise ValidationError(f"unsupported format: {obj.get('format')!r}")
    missing = [f"missing field: {key}" for key in ("labels", "dist", "weights") if key not in obj]
    if missing:
        raise ValidationError(missing[0], missing)
    ints = read_ints(obj["labels"], obj["dist"], obj["weights"], literals)
    if check:
        raise_invalid(int_violations(ints))
    return ints


def space_from_obj(obj, check: bool = True) -> FiniteMMSpace:
    """An mmspace/1 document as a FiniteMMSpace; checked once, in int form,
    unless `check` is false, and then carrying that form, so `canonicalize`
    and the glue neither check nor scale it again."""
    return _made(*ints_from_obj(obj, check), checked=check)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps_json(obj) -> str:
    """Canonical JSON rendering used for every artifact this package writes.

    Byte-identical to `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`.
    With `indent` set CPython renders through its pure-Python encoder. Once
    theorem-check's instances ran in forked shares, that encoder was its
    largest serial step: 22 ms of a 138 ms pass (seed 541, 450 instances, a
    448 KB report, on a 2-core host). This writer renders that report in
    about half the encoder's time (9-10 ms against 18-19 ms).

    The fast path takes exact types: a dict of str keys, sorted and encoded
    as json encodes them; a list or tuple; and str, int, bool and None
    leaves. It builds each container with one `str.join`. Any other node is
    rendered by `json.dumps` itself, re-indented to its depth: a float, a
    subclass, a dict with a key json converts (an int, a float, a bool,
    None) or cannot sort, and an unsupported object, which so raises json's
    own `TypeError`. Re-indenting is exact because raw newlines in JSON fall
    only between tokens, so the stdlib still defines the format. A cyclic
    object raises `RecursionError`, not `ValueError`; nothing this package
    writes is cyclic.
    """
    return _render(obj, "\n") + "\n"


def _render(node, newline: str) -> str:
    """`node` as JSON whose lines after the first start with `newline`."""
    t = type(node)
    if t is str:
        return encode_basestring_ascii(node)
    if t is dict:
        if not node:
            return "{}"
        inner = newline + "  "
        try:
            items = f",{inner}".join(
                [f"{encode_basestring_ascii(k)}: {_render(node[k], inner)}" for k in sorted(node)]
            )
        except TypeError:
            # a key that is not a str, keys that do not sort, or a node json
            # refuses below (then each enclosing dict hands its subtree on,
            # and json raises the same error)
            items = None
        if items is None:  # outside the handler, so json's error has no context
            return _stdlib_json(node, newline)
        return f"{{{inner}{items}{newline}}}"
    if t is list or t is tuple:
        if not node:
            return "[]"
        inner = newline + "  "
        items = f",{inner}".join([_render(v, inner) for v in node])
        return f"[{inner}{items}{newline}]"
    if t is int:
        return int.__repr__(node)
    if t is bool or node is None:
        return _JSON_CONSTANTS[node]
    return _stdlib_json(node, newline)


def _stdlib_json(node, newline: str) -> str:
    return json.dumps(node, indent=2, sort_keys=True).replace("\n", newline)


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


def load_space(path, check: bool = True) -> FiniteMMSpace:
    return space_from_obj(load_document(path), check)


def load_ints(path, check: bool = True, literals=None):
    """The space document in the file at `path` in the int form of
    `read_ints`, checked unless `check` is false."""
    return ints_from_obj(load_document(path), check, literals)


def save_space(path, space: FiniteMMSpace) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_json(space_to_obj(space)))
