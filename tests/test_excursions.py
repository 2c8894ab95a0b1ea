"""Piecewise excursions: evaluation, path infima, tree distance, IO."""

import random
from fractions import Fraction

from mmdist import (
    Excursion,
    ValidationError,
    comb,
    dh,
    evaluate,
    excursion_from_obj,
    excursion_to_obj,
    infimum,
    load_excursion,
    normalize,
    pc_excursion,
    pl_excursion,
    random_excursion,
    save_excursion,
    step_one,
    sup_diff,
    tent,
    validate_excursion,
    zero_excursion,
)
from mmdist import excursions
from mmdist.excursions import _int_excursions, _on_int_grid

from excursion_refs import ref_evaluate, ref_piece_limits

F = Fraction


def one_sided(h, t):
    """Exact (left limit, value, right limit) of h at t."""
    if h.kind == "pl":
        v = ref_evaluate(h, t)
        return v, v, v
    bps = h.breakpoints
    if t in bps:
        m = bps.index(t)
        left = h.values[m - 1] if m > 0 else h.breakpoint_values[0]
        right = h.values[m] if m < len(h.values) else h.breakpoint_values[-1]
        return left, h.breakpoint_values[m], right
    v = ref_evaluate(h, t)
    return v, v, v


def sup_diff_oracle(h, g):
    # On each refined piece the difference is linear, so the sup over [0, 1]
    # is a max over one-sided limits and values at the union cut points.
    cuts = sorted(set(h.breakpoints) | set(g.breakpoints))
    best = F(0)
    for t in cuts:
        hl, hv, hr = one_sided(h, t)
        gl, gv, gr = one_sided(g, t)
        best = max(best, abs(hl - gl), abs(hv - gv), abs(hr - gr))
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        best = max(best, abs(ref_evaluate(h, mid) - ref_evaluate(g, mid)))
    return best


def test_tent_pointwise_values():
    t = tent()
    assert evaluate(t, F(0)) == 0
    assert evaluate(t, F(1, 4)) == F(1, 2)
    assert evaluate(t, F(1, 2)) == 1
    assert evaluate(t, F(1)) == 0
    assert infimum(t, F(1, 4), F(5, 8)) == F(1, 2)
    assert dh(t, F(1, 4), F(5, 8)) == F(1, 4)


def test_evaluate_rejects_points_outside_unit_interval():
    try:
        evaluate(tent(), F(3, 2))
        assert False
    except ValidationError:
        pass


def test_comb_structure():
    c = comb(2)
    assert evaluate(c, F(1, 2)) == 0
    assert evaluate(c, F(1, 4)) == 1
    assert dh(c, F(1, 8), F(3, 8)) == 0
    assert dh(c, F(1, 8), F(5, 8)) == 2
    for n in (2, 3, 5):
        cn = comb(n)
        assert validate_excursion(cn) == []
        assert all(evaluate(cn, F(k, n)) == 0 for k in range(n + 1))


def test_step_one_is_a_valid_excursion():
    s = step_one()
    assert validate_excursion(s) == []
    assert evaluate(s, F(0)) == 0
    assert evaluate(s, F(1, 2)) == 1
    assert evaluate(s, F(1)) == 1


def test_zero_excursions():
    for kind in ("pl", "pc"):
        z = zero_excursion(kind)
        assert validate_excursion(z) == []
        assert all(evaluate(z, F(k, 7)) == 0 for k in range(8))


def test_pc_default_breakpoint_values():
    # Interior defaults to min of neighbours, right endpoint to the last piece.
    p = pc_excursion((0, F(1, 2), 1), (F(1, 2), F(1, 4)))
    assert p.breakpoint_values == (F(0), F(1, 4), F(1, 4))


def test_constructors_reject_invalid_input():
    try:
        pl_excursion((0, F(1, 2), 1), (F(1, 4), 1, 0))  # h(0) != 0
        assert False
    except ValidationError:
        pass
    try:
        pl_excursion((0, F(1, 2), 1), (0, -1, 0))
        assert False
    except ValidationError:
        pass
    try:
        pc_excursion((0, F(1, 2), 1), (F(1, 2), F(1, 4)), (0, F(3, 4), 0))
        assert False
    except ValidationError:
        pass
    try:
        pl_excursion((0, F(1, 2), F(1, 2), 1), (0, 1, 1, 0))
        assert False
    except ValidationError:
        pass


def test_validate_on_raw_excursions():
    assert validate_excursion(Excursion("nope", (F(0), F(1)), (F(0), F(0)))) != []
    assert validate_excursion(Excursion("pl", (F(0), F(1)), (F(0),))) != []
    assert validate_excursion(
        Excursion("pl", (F(0), F(1)), (F(0), F(0)), breakpoint_values=(F(0), F(0)))
    ) != []
    assert validate_excursion(Excursion("pc", (F(0), F(1)), (F(1),))) != []
    assert validate_excursion(Excursion("pl", (F(1, 4), F(1)), (F(0), F(0)))) != []


def test_normalize_drops_redundant_breakpoints():
    red = pl_excursion((0, F(1, 4), F(1, 2), 1), (0, F(1, 2), 1, 0))
    assert normalize(red) == tent()
    redc = pc_excursion((0, F(1, 4), F(1, 2), 1), (1, 1, F(1, 2)), (0, 1, F(1, 2), 0))
    n = normalize(redc)
    assert n.breakpoints == (F(0), F(1, 2), F(1))
    assert n.values == (F(1), F(1, 2))


def test_normalize_preserves_values_and_is_idempotent():
    rng = random.Random(13)
    for _ in range(60):
        h = random_excursion(rng)
        n = normalize(h)
        assert validate_excursion(n) == []
        assert normalize(n) == n
        for k in range(49):
            t = F(k, 48)
            assert evaluate(n, t) == evaluate(h, t)


def test_normalize_returns_its_own_output_as_it_is(monkeypatch):
    validated = []
    real = excursions.validate_excursion
    monkeypatch.setattr(excursions, "validate_excursion", lambda h: validated.append(h) or real(h))
    rng = random.Random(31)
    rebuilt = 0
    for h in [tent(), comb(3), step_one()] + [random_excursion(rng) for _ in range(30)]:
        validated.clear()
        n = normalize(h)
        # an input already normal comes back as itself, any other rebuilt
        assert (n is h) == (n == h) and validated == [h]
        rebuilt += n is not h
        assert normalize(n) is n and normalize(normalize(n)) is n and validated == [h]
        # the mark is no part of the data: equality, hashing, repr and the
        # document are those of the same fields built by hand
        plain = Excursion(n.kind, n.breakpoints, n.values, n.breakpoint_values)
        assert plain == n and hash(plain) == hash(n) and repr(plain) == repr(n)
        assert excursion_to_obj(plain) == excursion_to_obj(n)
        validated.clear()
        assert normalize(plain) is plain and normalize(plain) is plain and validated == [n]
    assert 0 < rebuilt < 33
    # an input with list fields is never marked
    listed, want = Excursion("pl", [0, F(1, 2), 1], [0, 1, 0]), tent()
    validated.clear()
    assert normalize(listed) == normalize(listed) == want and validated == [listed, listed]


def test_infimum_matches_grid_scan():
    # Sampled excursions live on the 1/12 grid, so a 1/240 scan hits every
    # breakpoint exactly and every piece interior at least once.
    rng = random.Random(19)
    for _ in range(60):
        h = random_excursion(rng)
        s = F(rng.randint(0, 48), 48)
        t = F(rng.randint(0, 48), 48)
        if s > t:
            s, t = t, s
        grid = [q for q in (F(k, 240) for k in range(241)) if s <= q <= t]
        want = min(ref_evaluate(h, q) for q in [s, t] + grid)
        assert infimum(h, s, t) == want


def test_infimum_is_order_insensitive():
    t = tent()
    assert infimum(t, F(5, 8), F(1, 4)) == infimum(t, F(1, 4), F(5, 8))


def test_dh_is_a_pseudometric_on_times():
    rng = random.Random(29)
    for _ in range(40):
        h = random_excursion(rng)
        pts = [F(rng.randint(0, 24), 24) for _ in range(3)]
        s, t, u = pts
        assert dh(h, s, s) == 0
        assert dh(h, s, t) == dh(h, t, s)
        assert dh(h, s, t) >= abs(evaluate(h, s) - evaluate(h, t))
        assert dh(h, s, u) <= dh(h, s, t) + dh(h, t, u)


def test_dh_matches_grid_scan_and_checks_s_first():
    # the same 1/240 scan as the infimum test, on both orders of s and t
    rng = random.Random(37)
    for _ in range(60):
        h = random_excursion(rng)
        s, t = F(rng.randint(0, 48), 48), F(rng.randint(0, 48), 48)
        grid = [q for q in (F(k, 240) for k in range(241)) if min(s, t) <= q <= max(s, t)]
        low = min(ref_evaluate(h, q) for q in [s, t] + grid)
        assert dh(h, s, t) == ref_evaluate(h, s) + ref_evaluate(h, t) - 2 * low
    # s is read and checked before t is parsed
    for s, t, text in ((2, F(1, 2), "s = 2"), (F(1, 2), -1, "t = -1"), (F(3, 2), "x", "s = 3/2")):
        try:
            dh(tent(), s, t)
            assert False
        except ValidationError as exc:
            assert str(exc) == f"{text} outside [0, 1]"


def test_sup_diff_matches_limit_oracle():
    rng = random.Random(31)
    for _ in range(80):
        h = random_excursion(rng)
        g = random_excursion(rng)
        v = sup_diff(h, g)
        assert v == sup_diff_oracle(h, g)
        assert v == sup_diff(g, h)
        assert sup_diff(h, h) == 0


def test_grid_reader_matches_the_reference_readers():
    # each grid holds every breakpoint between its ends, as the reader needs
    rng = random.Random(71)
    for _ in range(150):
        h = random_excursion(rng, time_den=rng.choice((7, 12)))
        bps = h.breakpoints
        picks = {F(rng.randint(0, 24), 24) for _ in range(rng.randint(1, 4))}
        lo, hi = min(picks), max(picks)
        grids = [
            (F(0),),
            (F(1),),
            (rng.choice(bps),),
            (F(rng.randint(0, 24), 24),),
            sorted(picks | {b for b in bps if lo < b < hi}),
            sorted(picks | set(bps)),
        ]
        for grid in grids:
            (h_int,), cuts, den = _int_excursions(h, extra=grid)
            points, pieces, m = _on_int_grid(h_int, cuts)
            den *= m
            points = [F(v, den) for v in points]
            assert points == [ref_evaluate(h, t) for t in grid]
            assert [(F(a, den), F(b, den)) for a, b in pieces] == [
                ref_piece_limits(h, a, b) for a, b in zip(grid, grid[1:])
            ]
            assert [evaluate(h, t) for t in grid] == points


def test_sup_diff_known_values():
    t = tent()
    assert sup_diff(t, zero_excursion("pl")) == 1
    shrunk = pl_excursion((0, F(1, 2), 1), (0, F(9, 10), 0))
    assert sup_diff(t, shrunk) == F(1, 10)


def test_random_excursion_is_valid_and_deterministic():
    for seed in range(60):
        h = random_excursion(random.Random(seed))
        assert validate_excursion(h) == []
        assert h == random_excursion(random.Random(seed))
        assert h.kind in ("pl", "pc")
    kinds = {random_excursion(random.Random(s)).kind for s in range(20)}
    assert kinds == {"pl", "pc"}
    assert random_excursion(random.Random(0), kind="pc").kind == "pc"


def test_obj_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        h = random_excursion(rng)
        assert excursion_from_obj(excursion_to_obj(h)) == h


def test_file_round_trip(tmp_path):
    h = random_excursion(random.Random(41))
    path = tmp_path / "h.json"
    save_excursion(path, h)
    assert load_excursion(path) == h
    text = path.read_text()
    save_excursion(path, h)
    assert path.read_text() == text


def test_comb_refuses_a_bool_or_a_non_integral_count():
    for n in (True, False, 2.5, F(5, 2), 0, -1, 0.0, float("nan"), float("inf"), "3"):
        try:
            comb(n)
            assert False, n
        except ValidationError as exc:
            assert str(exc) == f"comb needs an integer n >= 1, got {n!r}"
    # an integral count of another type builds the same comb
    assert comb(3.0) == comb(F(3)) == comb(3)
