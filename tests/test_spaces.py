"""Finite metric measure spaces: validation, canonical form, isomorphism, IO."""

import enum
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    FiniteMMSpace,
    SizeError,
    ValidationError,
    are_isomorphic,
    canonicalize,
    code_excursion,
    is_canonical,
    load_space,
    mm_space,
    parse_scalar,
    pc_excursion,
    pl_excursion,
    sample_mm_space,
    save_space,
    space_from_obj,
    space_to_obj,
    validate,
)
from mmdist import spaces
from mmdist.exact import scaled, scaled_rows
from mmdist.spaces import (
    dumps_json,
    int_form,
    int_violations,
    load_ints,
    loads_document,
    paired_forms,
    read_ints,
)

from quotient_refs import ref_quotient

F = Fraction


def two_point(d, w0):
    return FiniteMMSpace(("a", "b"), ((F(0), F(d)), (F(d), F(0))), (F(w0), 1 - F(w0)))


def test_validate_accepts_good_space():
    assert validate(two_point("1/2", "1/4")) == []


def test_validate_flags_each_axiom():
    asym = FiniteMMSpace(("a", "b"), ((F(0), F(1)), (F(2), F(0))), (F(1, 2), F(1, 2)))
    assert any("dist[0][1]" in v for v in validate(asym))
    diag = FiniteMMSpace(("a",), ((F(1),),), (F(1),))
    assert validate(diag) != []
    tri = FiniteMMSpace(
        ("a", "b", "c"),
        ((F(0), F(1), F(3)), (F(1), F(0), F(1)), (F(3), F(1), F(0))),
        (F(1, 3), F(1, 3), F(1, 3)),
    )
    assert any("triangle" in v for v in validate(tri))
    wsum = FiniteMMSpace(("a", "b"), ((F(0), F(1)), (F(1), F(0))), (F(3, 4), F(1, 2)))
    assert any("sum" in v for v in validate(wsum))
    neg = FiniteMMSpace(("a", "b"), ((F(0), F(1)), (F(1), F(0))), (F(5, 4), F(-1, 4)))
    assert any("negative" in v for v in validate(neg))


def test_validate_allows_pseudometric():
    # Distinct labels at distance zero are legal input; canonicalize merges them.
    ps = FiniteMMSpace(
        ("a", "b", "c"),
        ((F(0), F(0), F(1)), (F(0), F(0), F(1)), (F(1), F(1), F(0))),
        (F(1, 4), F(1, 4), F(1, 2)),
    )
    assert validate(ps) == []
    c = canonicalize(ps)
    assert c.n == 2
    assert c.labels == ("a", "c")
    assert c.weights == (F(1, 2), F(1, 2))
    assert c.dist[0][1] == F(1)


def test_canonicalize_drops_zero_weight_points():
    zw = FiniteMMSpace(("a", "b"), ((F(0), F(1)), (F(1), F(0))), (F(1), F(0)))
    c = canonicalize(zw)
    assert c.labels == ("a",)
    assert c.weights == (F(1),)


def blown_up(rng):
    """A sampled metric with each point copied one to three times at
    distance 0, weights that include zeros, and the points shuffled."""
    base = sample_mm_space(rng.randrange(10**9), n_max=6)
    copies = [i for i in range(base.n) for _ in range(rng.randint(1, 3))]
    rng.shuffle(copies)
    raw = [rng.choice((0, 0, 1, 2, 5)) for _ in copies]
    raw[rng.randrange(len(raw))] += 1  # some weight is positive
    return FiniteMMSpace(
        tuple(f"q{k}" for k in range(len(copies))),
        tuple(tuple(base.dist[a][b] for b in copies) for a in copies),
        tuple(F(w, sum(raw)) for w in raw),
    )


def test_canonicalize_equals_the_union_find_quotient():
    rng = random.Random(37)
    merged = dropped = 0
    for _ in range(200):
        sp = blown_up(rng)
        want = ref_quotient(sp)
        # hand-built (checked by canonicalize) and read (carrying its form)
        read = space_from_obj(space_to_obj(sp))
        for c in (canonicalize(sp), canonicalize(read)):
            assert (c.labels, c.dist, c.weights) == want
        merged += len(set(map(tuple, sp.dist))) < sp.n
        dropped += 0 in sp.weights
    assert merged >= 100 and dropped >= 100


def test_canonicalize_idempotent_and_flagged():
    rng = random.Random(3)
    for _ in range(60):
        sp = sample_mm_space(rng.randint(0, 10**6))
        c = canonicalize(sp)
        assert is_canonical(c)
        assert canonicalize(c) == c
        assert validate(c) == []


def test_canonicalize_returns_its_own_output_as_it_is(monkeypatch):
    validated = []
    real = spaces.require_valid
    monkeypatch.setattr(spaces, "require_valid", lambda sp: validated.append(sp) or real(sp))
    rng = random.Random(29)
    for _ in range(30):
        c = canonicalize(sample_mm_space(rng.randint(0, 10**6), n_max=4))
        validated.clear()
        assert canonicalize(c) is c and canonicalize(canonicalize(c)) is c
        assert validated == []
        # the mark is no part of the data: equality, hashing, repr and the
        # document are those of the same fields built by hand
        plain = FiniteMMSpace(c.labels, c.dist, c.weights)
        assert plain == c and hash(plain) == hash(c) and repr(plain) == repr(c)
        assert dumps_json(space_to_obj(plain)) == dumps_json(space_to_obj(c))
        # a hand-built space and a replaced one are validated, equal fields or not
        for unmarked in (plain, replace(c)):
            validated.clear()
            out = canonicalize(unmarked)
            assert out is not unmarked and out == c and validated == [unmarked]
            assert canonicalize(out) is out
    c = canonicalize(two_point("1/2", "1/4"))
    for bad in (
        FiniteMMSpace(c.labels, c.dist, (F(1, 2), F(1, 4))),
        FiniteMMSpace(c.labels, ((F(0), F(-1, 2)), (F(-1, 2), F(0))), c.weights),
        replace(c, weights=(F(1), F(1))),
    ):
        try:
            canonicalize(bad)
            assert False
        except ValidationError:
            pass


def scaled_form(sp):
    """A space's int form as its own entries scale: (rows, D, weights, W)."""
    (rows,), D = scaled_rows(sp.dist)
    return (rows, D, *scaled(sp.weights))


def made_spaces():
    """A space from every maker, each carrying its form."""
    rng = random.Random(33)
    out = []
    fields = (
        ("a", "b", "c"),
        [["0", "0.5", "1"], ["2/4", "0", "1/2"], [1, "0.5", "0"]],
        ["0.25", "1/4", "2/4"],
    )
    # read with its check, from documents and from fields
    doc = dict(zip(("labels", "dist", "weights"), fields), format="mmspace/1")
    out.append(space_from_obj(doc))
    out.append(mm_space(*fields))
    for _ in range(6):
        out.append(space_from_obj(space_to_obj(sample_mm_space(rng.randint(0, 10**6), n_max=6))))
    # sampled
    for diam_max in (1, "3/2", 0.5):
        for _ in range(4):
            out.append(sample_mm_space(rng.randint(0, 10**6), n_max=6, diam_max=diam_max))
    # coded: a pl plateau and equal pc pieces, whose segments merge at d = 0
    plateau = pl_excursion((0, "1/4", "3/4", 1), (0, 1, 1, 0))
    steps = pc_excursion((0, "1/3", "2/3", 1), ("1/2", "1/2", 1), (0, "1/2", "1/2", 1))
    for h, resolution in ((plateau, ("1/3", "1/2", "2/3")), (steps, ("1/6", "1/2"))):
        coded = code_excursion(h, resolution=resolution)
        assert len(coded.projection) > coded.space.n  # some segments merged
        out.append(coded.space)
    # canonicalized: hand-built int, float and Fraction spaces with zero
    # distances and zero weights
    d = ((0, 0, 2, 4), (0, 0, 2, 4), (2, 2, 0, 2), (4, 4, 2, 0))
    labels = ("a", "b", "c", "d")
    hand = [
        FiniteMMSpace(labels, d, (1, 0, 0, 0)),
        FiniteMMSpace(labels, tuple(tuple(x / 4 for x in row) for row in d), (0.25, 0.25, 0.5, 0)),
        FiniteMMSpace(
            labels, tuple(tuple(F(x, 3) for x in row) for row in d), (F(1, 6), F(1, 3), F(1, 2), 0)
        ),
    ]
    for sp in hand:
        assert sp._form is None and int_form(sp) == scaled_form(sp)
        c = canonicalize(sp)
        assert c.n < sp.n
        out.append(c)
    return out


def test_each_maker_carries_the_form_its_entries_scale_to():
    for sp in made_spaces():
        assert sp._form is not None and int_form(sp) is sp._form
        assert sp._form == scaled_form(sp)
        assert validate(sp) == []
        assert all(type(x) is F for row in sp.dist for x in row)
        assert all(type(w) is F for w in sp.weights)


def test_paired_forms_are_one_scaling_of_both_spaces():
    spaces_ = made_spaces()
    for a, b in [*zip(spaces_, spaces_[1:]), *zip(spaces_, spaces_[::-1]), (spaces_[0],) * 2]:
        (da, db), D, (wa, wb), W = paired_forms(int_form(a), int_form(b))
        assert ([da, db], D) == scaled_rows(a.dist, b.dist)
        assert (wa + wb, W) == scaled(a.weights + b.weights)


def test_sampling_refuses_an_n_max_past_its_cap_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(spaces.random, "Random", lambda *seed: drawn.append(seed))
    for n_max in (spaces.MAX_SAMPLE_POINTS + 1, 100_000):
        with pytest.raises(SizeError, match=f"n_max {n_max} exceeds the sampling cap"):
            sample_mm_space(0, n_max=n_max)
    assert drawn == []


def test_are_isomorphic_under_permutation():
    rng = random.Random(5)
    for _ in range(40):
        sp = canonicalize(sample_mm_space(rng.randint(0, 10**6)))
        perm = list(range(sp.n))
        rng.shuffle(perm)
        sq = FiniteMMSpace(
            tuple(sp.labels[i] for i in perm),
            tuple(tuple(sp.dist[i][j] for j in perm) for i in perm),
            tuple(sp.weights[i] for i in perm),
        )
        assert are_isomorphic(sp, sq)


def test_are_isomorphic_respects_weights_and_distances():
    a = two_point("1/2", "1/2")
    assert not are_isomorphic(a, two_point("1/2", "1/4"))
    assert not are_isomorphic(a, two_point("1/3", "1/2"))
    assert are_isomorphic(a, two_point("1/2", "1/2"))


def test_sample_space_is_valid_and_deterministic():
    for seed in range(80):
        sp = sample_mm_space(seed, n_max=4, diam_max=F(1))
        assert validate(sp) == []
        assert 1 <= sp.n <= 4
        assert max(max(row) for row in sp.dist) <= F(1)
        assert sp == sample_mm_space(seed, n_max=4, diam_max=F(1))


def sample_references(seed, n_max, diam_maxes):
    """The Fraction Floyd-Warshall `sample_mm_space` replaced, on the same
    draws, for each of `diam_maxes`."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    den = rng.choice((2, 3, 4, 6, 8, 12))
    grid = [(i, j, F(rng.randint(1, den), den)) for i in range(n) for j in range(i + 1, n)]
    raw = [rng.randint(1, 8) for _ in range(n)]
    weights = tuple(F(r, sum(raw)) for r in raw)
    for diam_max in diam_maxes:
        d = [[F(0)] * n for _ in range(n)]
        for i, j, x in grid:
            d[i][j] = d[j][i] = diam_max * x
        # the old loop less its steps that cannot change an entry: the
        # matrix stays symmetric, and k = i, k = j or i = j adds a zero or
        # a positive distance
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if k != i and k != j:
                        via = d[i][k] + d[k][j]
                        if via < d[i][j]:
                            d[i][j] = d[j][i] = via
        yield FiniteMMSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, d)), weights)


def test_sample_space_equals_the_fraction_floyd_warshall():
    diam_maxes = (F(1), F(7, 3), F(5))
    for seed in range(1000):
        for n_max in (1, 3, 6):
            refs = sample_references(seed, n_max, diam_maxes)
            for diam_max, ref in zip(diam_maxes, refs):
                sp = sample_mm_space(seed, n_max=n_max, diam_max=diam_max)
                assert sp == ref
                assert all(type(x) is F for row in sp.dist for x in row)
                assert all(type(w) is F for w in sp.weights)


def test_sampled_space_is_its_own_canonical_form(monkeypatch):
    # sampling marks its output canonical without validating it; the same
    # fields built by hand canonicalize to an equal space
    validated = []
    real = spaces.require_valid
    monkeypatch.setattr(spaces, "require_valid", lambda sp: validated.append(sp) or real(sp))
    rng = random.Random(37)
    for _ in range(200):
        seed, n_max = rng.randint(0, 10**6), rng.randint(1, 9)
        diam_max = rng.choice((1, "3/2", 0.5))
        sp = sample_mm_space(seed, n_max=n_max, diam_max=diam_max)
        assert validated == [] and canonicalize(sp) is sp
        assert validate(sp) == [] and is_canonical(sp)
        assert canonicalize(FiniteMMSpace(sp.labels, sp.dist, sp.weights)) == sp
        validated.clear()


def test_obj_round_trip_exact():
    rng = random.Random(9)
    for _ in range(40):
        sp = sample_mm_space(rng.randint(0, 10**6))
        assert space_from_obj(space_to_obj(sp)) == sp


def test_obj_parses_decimal_strings_exactly():
    obj = {
        "format": "mmspace/1",
        "labels": ["a", "b"],
        "dist": [["0", "0.1"], ["0.1", 0]],
        "weights": ["0.25", "0.75"],
    }
    sp = space_from_obj(obj)
    assert sp.dist[0][1] == F(1, 10)
    assert sp.weights == (F(1, 4), F(3, 4))


def test_each_distinct_literal_is_parsed_once_per_document(monkeypatch):
    sp = sample_mm_space(11, n_max=9)
    obj = space_to_obj(sp)
    literals = {x for row in obj["dist"] for x in row} | set(obj["weights"])
    for _ in range(2):  # the memo lives with one document, not across them
        parsed = []
        real = spaces.parse_ratio
        monkeypatch.setattr(spaces, "parse_ratio", lambda x: parsed.append(x) or real(x))
        assert space_from_obj(obj, check=False) == sp
        assert sorted(parsed) == sorted(literals)
        monkeypatch.undo()


def test_bad_literals_are_named_by_path_in_order():
    base = {"format": "mmspace/1", "labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
    # 1 and "1" parse, true never does, though a set of literals keeps one
    # of 1 and true (`MALFORMED_DOCS` in test_cli.py has "1" before true)
    for weights, k in (([1, True], 1), ([True, "1"], 0), ([True, 1], 0), ([1.0, True], 1)):
        try:
            space_from_obj({**base, "weights": weights})
            assert False, weights
        except ValidationError as exc:
            assert exc.violations == [f"weights[{k}]: invalid literal true"]
    # a bad literal met twice is named twice, each field in document order
    obj = {**base, "dist": [["0", "x"], ["x", "1/0"]], "weights": ["y", "1/2"]}
    try:
        space_from_obj(obj)
        assert False
    except ValidationError as exc:
        assert exc.violations == [
            'dist[0][1]: invalid literal "x"',
            'dist[1][0]: invalid literal "x"',
            'dist[1][1]: invalid literal "1/0"',
            'weights[0]: invalid literal "y"',
        ]


def test_a_label_is_a_string_or_a_number():
    dist, weights = [["0", "1"], ["1", "0"]], ["1/2", "1/2"]
    sp = mm_space(["a", 7], dist, weights)
    assert sp.labels == ("a", "7") and mm_space([0.5, "b"], dist, weights).labels == ("0.5", "b")
    for bad, shown in ((None, "null"), (True, "true"), ([1], "[1]"), ({"x": 1}, '{"x": 1}')):
        try:
            mm_space(["a", bad], dist, weights)
            assert False, bad
        except ValidationError as exc:
            assert exc.violations == [f"labels[1]: expected a string or a number, got {shown}"]
    # labels are named first, then the other fields in document order
    try:
        mm_space([None, "b"], [["0", "x"], 5], weights)
        assert False
    except ValidationError as exc:
        assert exc.violations == [
            "labels[0]: expected a string or a number, got null",
            'dist[0][1]: invalid literal "x"',
            "dist[1]: expected a list, got 5",
        ]


# ---------------------------------------------------------------------------
# differential: the int reader against a Fraction-per-entry reference

HUGE_INT = "1" * 5001  # one digit past the interpreter's limit on int strings


def decimal_digits(q):
    """(m, k) with |q| = m / 10**k when q has a finite decimal form, else None."""
    d, k = q.denominator, 0
    while d % 10 == 0 or d % 2 == 0 or d % 5 == 0:
        d //= 10 if d % 10 == 0 else 2 if d % 2 == 0 else 5
        k += 1
    if d != 1:
        return None
    return abs(q.numerator) * 10**k // q.denominator, k


def spellings(q):
    """JSON tokens for the value q: quoted ASCII ints, unreduced and signed
    p/q, decimals, exponents and padded strings, bare JSON ints and floats."""
    p, d = q.numerator, q.denominator
    out = [json.dumps(f"{3 * p}/{3 * d}"), json.dumps(f"  {q}\t"), json.dumps(str(q))]
    if d == 1:
        out += [json.dumps(str(p)), str(p), json.dumps(f"{p}e0")]
    digits = decimal_digits(q)
    if digits:
        m, k = digits
        text = str(m).rjust(k + 1, "0")
        text = f"{'-' if p < 0 else ''}{text[:-k]}.{text[-k:]}" if k else f"{text}.0"
        exponent = f"{'-' if p < 0 else ''}{m}e-{k}"
        out += [json.dumps(text), text, json.dumps(exponent), exponent.replace("e", "E")]
    return out


BAD_TOKENS = (json.dumps("1/0"), json.dumps("1e5000"), HUGE_INT, "true")


def seeded_document(rng):
    """JSON text of a 1- to 5-point mmspace/1 document: lattice distances,
    sometimes negated or kicked, over a denominator with and without a
    decimal form; weights that sum to 1 or not; one bad token in some."""
    n = rng.randint(1, 5)
    den = rng.choice((1, 2, 4, 5, 8, 10, 3, 6))
    pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
    d = [[F(abs(a - c) + abs(b - e), den) for c, e in pts] for a, b in pts]
    if n > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(n), 2)
        d[i][j] = rng.choice((-d[i][j] - 1, d[i][j] + F(1, 3), d[i][j] * 5))
    raw = [rng.randint(1, 5) for _ in range(n)]
    weights = [F(r, sum(raw)) for r in raw]
    if rng.random() < 0.2:
        weights[0] -= rng.choice((F(1), F(1, 10)))
    tokens = [[rng.choice(spellings(x)) for x in row] for row in d]
    wtokens = [rng.choice(spellings(w)) for w in weights]
    if rng.random() < 0.25:
        bad = rng.choice(BAD_TOKENS)
        if rng.random() < 0.5:
            tokens[rng.randrange(n)][rng.randrange(n)] = bad
        else:
            wtokens[rng.randrange(n)] = bad
    return (
        '{"format": "mmspace/1", '
        f'"labels": {json.dumps([f"x{i}" for i in range(n)])}, '
        f'"dist": [{", ".join("[" + ", ".join(row) + "]" for row in tokens)}], '
        f'"weights": [{", ".join(wtokens)}]}}'
    )


def reference_read(obj):
    """(errors, space): every entry parsed on its own to a Fraction."""
    errors = []

    def scalar(x, path):
        try:
            return parse_scalar(x)
        except (ValueError, ZeroDivisionError):
            errors.append(f"{path}: invalid literal {json.dumps(x)}")

    dist = tuple(
        tuple(scalar(x, f"dist[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(obj["dist"])
    )
    weights = tuple(scalar(w, f"weights[{k}]") for k, w in enumerate(obj["weights"]))
    return errors, FiniteMMSpace(tuple(obj["labels"]), dist, weights)


def test_the_int_reader_equals_a_fraction_per_entry_reference():
    rng = random.Random(30)
    seen = {"bad literal": 0, "invalid": 0, "valid": 0}
    forms = set()
    for _ in range(600):
        obj = loads_document(seeded_document(rng))
        forms |= {type(x) for row in obj["dist"] for x in row} | {type(w) for w in obj["weights"]}
        errors, ref = reference_read(obj)
        try:
            ints = read_ints(obj["labels"], obj["dist"], obj["weights"])
        except ValidationError as exc:
            assert errors and exc.violations == errors
            seen["bad literal"] += 1
            continue
        assert not errors
        labels, rows, D, weights, W = ints
        assert labels == ref.labels
        assert ([rows], D) == scaled_rows(ref.dist) and (weights, W) == scaled(ref.weights)
        violations = validate(ref)
        assert int_violations(ints) == violations
        assert space_from_obj(obj, check=False) == ref
        seen["invalid" if violations else "valid"] += 1
    assert forms == {str, int, bool}
    assert min(seen.values()) >= 60, seen


def test_obj_rejects_unknown_format():
    try:
        space_from_obj({"format": "nope/1", "labels": ["a"], "dist": [[0]], "weights": [1]})
        assert False
    except ValidationError:
        pass


def test_file_round_trip(tmp_path):
    sp = canonicalize(sample_mm_space(123))
    path = tmp_path / "space.json"
    save_space(path, sp)
    assert load_space(path) == sp
    # Serialization is deterministic: same space, same bytes.
    text = path.read_text()
    save_space(path, sp)
    assert path.read_text() == text
    assert text.endswith("\n")


def test_load_space_check_flag(tmp_path):
    bad = {
        "format": "mmspace/1",
        "labels": ["a", "b"],
        "dist": [["0", "1"], ["1", "0"]],
        "weights": ["3/4", "1/2"],
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(bad))
    try:
        load_space(path)
        assert False
    except ValidationError:
        pass
    sp = load_space(path, check=False)
    assert sum(sp.weights) == F(5, 4)
    # an unchecked read is not marked valid, so canonicalize still checks it
    try:
        canonicalize(sp)
        assert False
    except ValidationError as exc:
        assert "weights sum to 5/4" in str(exc)


def test_equal_values_read_to_equal_ints(tmp_path):
    # `dist prohorov` compares two documents' int forms: the same values
    # written with other literals read to the same labels, rows and
    # denominator, whether or not the reads share one literal table
    sp = sample_mm_space(11, n_max=9)
    obj = space_to_obj(sp)
    rng = random.Random(23)

    def respelled(q):
        return rng.choice((str(q), f"{2 * q.numerator}/{2 * q.denominator}", f" {q} "))

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(obj))
    other = {**obj, "dist": [[respelled(x) for x in row] for row in sp.dist]}
    paths[1].write_text(json.dumps(other))
    literals = {}
    shared = [load_ints(path, literals=literals) for path in paths]
    alone = [load_ints(path) for path in paths]
    for labels, rows, D, weights, W in (*shared, *alone):
        assert (labels, rows, D, weights, W) == shared[0]
    assert space_from_obj(other) == sp
    # one value moved is another matrix (the space has 8 points)
    moved = [row[:] for row in other["dist"]]
    moved[0][1] = moved[1][0] = str(sp.dist[0][1] + F(1, 7))
    paths[1].write_text(json.dumps({**obj, "dist": moved}))
    _, rows, D, _, _ = load_ints(paths[1], check=False, literals=literals)
    assert (rows, D) != shared[0][1:3]


def test_loads_document_keeps_decimals_as_strings():
    obj = loads_document('{"x": 0.1}')
    assert obj["x"] == "0.1"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**20


class _Label(str):
    pass


def _stdlib_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _outcome(render, obj):
    """What `render(obj)` returns, or the type and message of what it raises."""
    try:
        return render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# ASCII, escapes, control characters, non-ASCII, an astral character and
# lone surrogates, from a fixed alphabet: st.text would first build its
# Unicode table, longer than the whole property takes
_ALPHABET = "az \"\\/\x00\x1f\x7f\n\té☃\u2028\ud800\udfff𝄞"
_TEXT = st.lists(st.sampled_from(_ALPHABET), max_size=6).map("".join)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**40, -(10**40), _Level.LOW, _Level.HIGH])
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
    | _TEXT
    | _TEXT.map(_Label)
)
# one key type per dict, so the dict sorts: a dict that mixes key types is
# refused by both renderers, and whatever it holds would go unchecked
_JSON_KEYS = (_TEXT, _TEXT.map(_Label), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.one_of([st.dictionaries(keys, children, max_size=3) for keys in _JSON_KEYS]),
    max_leaves=12,
)


@settings(max_examples=40)
@given(_JSON_TREES)
def test_dumps_json_is_the_stdlib_rendering(tree):
    assert _outcome(dumps_json, tree) == _outcome(_stdlib_dumps, tree)


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        {2: "int", 1: "keys"},
        {1.5: "float", -0.0: "keys", float("inf"): "sort"},
        {True: "bool", False: "keys"},
        {None: "null key"},
        {_Label("b"): _Label("str"), "a": "subclass"},
        [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 0.1],
        [10**40, -(10**40), _Level.LOW, _Level.HIGH, True, None],
        ("\ud800", "\udfff", "\x00\x1f\x7f", "é☃𝄞\u2028", '"\\/'),
        {"deep": [{"x": (1, {"y": [{2: 2.5}]})}]},
    ],
)
def test_dumps_json_is_the_stdlib_rendering_on_each_node_kind(tree):
    assert dumps_json(tree) == _stdlib_dumps(tree)


@pytest.mark.parametrize(
    "tree",
    [F(1, 2), [F(1, 2)], {"a": {"b": [1, F(1, 2)]}}, {"a": 1, 2: "b"}, {"a": {1: "x", "y": 2}}],
    ids=["leaf", "in-list", "nested", "mixed-keys", "nested-mixed-keys"],
)
def test_dumps_json_refuses_what_the_stdlib_refuses(tree):
    with pytest.raises(TypeError) as ours:
        dumps_json(tree)
    with pytest.raises(TypeError) as theirs:
        _stdlib_dumps(tree)
    assert str(ours.value) == str(theirs.value)
    assert ours.value.__context__ is None
