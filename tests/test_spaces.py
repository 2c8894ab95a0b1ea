"""Finite metric measure spaces: validation, canonical form, isomorphism, IO."""

import random
from dataclasses import replace
from fractions import Fraction

from mmdist import (
    FiniteMMSpace,
    ValidationError,
    are_isomorphic,
    canonicalize,
    is_canonical,
    load_space,
    sample_mm_space,
    save_space,
    space_from_obj,
    space_to_obj,
    validate,
)
from mmdist import spaces
from mmdist.spaces import dumps_json, loads_document

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
        real = spaces.parse_scalar
        monkeypatch.setattr(spaces, "parse_scalar", lambda x: parsed.append(x) or real(x))
        assert space_from_obj(obj, check=False) == sp
        assert sorted(parsed) == sorted(literals)
        monkeypatch.undo()


def test_bad_literals_are_named_by_path_in_order():
    base = {"format": "mmspace/1", "labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
    # the memo holds str literals only: 1 and "1" parse, true never does
    # (`MALFORMED_DOCS` in test_cli.py has "1" before true)
    for weights, k in (([1, True], 1), ([True, "1"], 0)):
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


def test_documents_read_with_one_literal_table_share_each_literal(tmp_path):
    sp = sample_mm_space(11, n_max=9)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        save_space(path, sp)
    literals = {}
    a, b = (load_space(path, literals=literals) for path in paths)
    assert a == b == sp
    assert all(x is y for ra, rb in zip(a.dist, b.dist) for x, y in zip(ra, rb))
    assert all(x is y for x, y in zip(a.weights, b.weights))
    # each read on its own parses its own Fractions
    c = load_space(paths[1])
    assert c == sp and c.dist[0][1] is not a.dist[0][1]


def test_loads_document_keeps_decimals_as_strings():
    obj = loads_document('{"x": 0.1}')
    assert obj["x"] == "0.1"
