"""Level distance, epigraph Hausdorff distance, and their sum on excursions."""

import heapq
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from mmdist import (
    Excursion,
    ValidationError,
    code_excursion,
    comb,
    d_excursion,
    d_excursion_detail,
    d_gamma,
    d_gamma_detail,
    d_lambda,
    directed_gamma_sq,
    pl_excursion,
    random_excursion,
    sqrt_if_square,
    step_one,
    sup_diff,
    tent,
    zero_excursion,
)
from mmdist import excursion_metrics, excursions
from mmdist.exact import isqrt_enclosure, sqrt_enclosure
from mmdist.excursion_metrics import DEFAULT_GAMMA_TOL, _directed_bb
from mmdist.excursions import _int_excursions, dh, evaluate, infimum, normalize

from excursion_refs import ref_d_lambda, ref_evaluate, ref_piece_limits

F = Fraction

TOL = F(1, 10**9)


def directed_bb(src, tgt, tol, budget):
    """One directed branch and bound, run alone to its end: (lo, hi)."""
    (s, t), _, den = _int_excursions(src, tgt)
    _, run = _directed_bb(s, t, den)
    lo, hi = run(tol, budget)
    return F(*lo), F(*hi)


def measure_above(h, g, eps):
    """lambda{ |h - g| > eps } exactly.

    On each open piece of the union refinement the difference is linear, so
    two interior samples reconstruct it; endpoint values carry no measure.
    """
    cuts = sorted(set(h.breakpoints) | set(g.breakpoints))
    total = F(0)
    for lo, hi in zip(cuts, cuts[1:]):
        p = lo + (hi - lo) / 3
        q = lo + 2 * (hi - lo) / 3
        vp = ref_evaluate(h, p) - ref_evaluate(g, p)
        vq = ref_evaluate(h, q) - ref_evaluate(g, q)
        slope = (vq - vp) / (q - p)
        da = vp + slope * (lo - p)
        db = vp + slope * (hi - p)
        length = hi - lo
        if slope == 0:
            if abs(da) > eps:
                total += length
            continue
        # |da + slope * x| <= eps exactly between the two crossings.
        x1 = (eps - da) / slope
        x2 = (-eps - da) / slope
        a, b = min(x1, x2), max(x1, x2)
        inside = min(max(b, 0), length) - min(max(a, 0), length)
        total += length - inside
    return total


def scaled_tent(c):
    return pl_excursion((0, F(1, 2), 1), (0, c, 0))


def test_lambda_pinned_values():
    assert d_lambda(tent(), scaled_tent(F(9, 10))) == F(1, 11)
    assert d_lambda(tent(), zero_excursion("pl")) == F(1, 2)
    assert d_lambda(comb(2), zero_excursion("pc")) == 1
    for n in (2, 3, 5):
        assert d_lambda(comb(n), step_one()) == 0


def test_lambda_value_is_an_infimum():
    # lambda{ tent > eps } = 1 - eps, so the strict condition m(eps) < eps
    # first holds just above 1/2 and fails at the value itself.
    h, g = tent(), zero_excursion("pl")
    v = d_lambda(h, g)
    assert v == F(1, 2)
    assert measure_above(h, g, v) == v
    assert measure_above(h, g, v + F(1, 1000)) < v + F(1, 1000)


def test_lambda_matches_the_measure_characterization():
    # The two exact conditions at distance 1e-9 pin the infimum: distinct
    # rationals with the denominators in play differ by far more than 2e-9.
    rng = random.Random(151)
    delta = F(1, 10**9)
    for _ in range(60):
        h = random_excursion(rng)
        g = random_excursion(rng)
        v = d_lambda(h, g)
        assert measure_above(h, g, v + delta) < v + delta
        if v > 0:
            assert measure_above(h, g, v - delta) >= v - delta
        else:
            assert measure_above(h, g, F(0)) == 0


def test_lambda_is_a_pseudometric():
    rng = random.Random(157)
    for _ in range(40):
        h = random_excursion(rng)
        g = random_excursion(rng)
        k = random_excursion(rng)
        assert d_lambda(h, h) == 0
        assert d_lambda(h, g) == d_lambda(g, h)
        assert d_lambda(h, k) <= d_lambda(h, g) + d_lambda(g, k)
        assert d_lambda(h, g) <= sup_diff(h, g)


def test_lambda_zero_iff_equal_almost_everywhere():
    assert d_lambda(comb(3), step_one()) == 0  # differ only at breakpoints
    bumped = pl_excursion((0, F(1, 4), F(1, 2), 1), (0, F(1, 2), 1, 0))
    assert d_lambda(tent(), bumped) == 0
    assert d_lambda(tent(), scaled_tent(F(1, 2))) > 0


def test_lambda_equals_the_fraction_reference():
    # time grids of 7, 12 and 30 put one side's breakpoints strictly inside
    # the other's pl pieces, where it reads off-grid
    rng = random.Random(163)
    pairs = []
    for kinds in (("pl", "pl"), ("pc", "pc"), ("pl", "pc"), ("pc", "pl")):
        for _ in range(40):
            h, g = (
                random_excursion(rng, kind, max_pieces=rng.randint(1, 7), time_den=rng.choice((7, 12, 30)))
                for kind in kinds
            )
            pairs.append((h, g))
    pairs += [(h, h) for h, _ in pairs[::10]]
    bumped = pl_excursion((0, F(1, 4), F(1, 2), 1), (0, F(1, 2), 1, 0))  # tent, one more breakpoint
    one_piece = [zero_excursion("pl"), zero_excursion("pc"), step_one()]
    pairs += [(tent(), bumped), (comb(3), step_one())] + [(h, g) for h in one_piece for g in one_piece]
    pairs += [(h, tent()) for h in one_piece] + [(comb(2), h) for h in one_piece]
    crossings = 0
    for h, g in pairs:
        assert d_lambda(h, g) == ref_d_lambda(h, g)
        cuts = sorted(set(h.breakpoints) | set(g.breakpoints))
        for lo, hi in zip(cuts, cuts[1:]):
            (h0, h1), (g0, g1) = ref_piece_limits(h, lo, hi), ref_piece_limits(g, lo, hi)
            crossings += (h0 - g0) * (h1 - g1) < 0
    assert crossings >= 60  # pieces where h - g changes sign


def test_gamma_pc_pinned_values():
    # comb(8) has a zero at 1/4, exactly midway between comb(6)'s zeros at
    # 1/6 and 1/3, which makes the (6, 8) distance 1/12 rather than 1/24.
    assert d_gamma(comb(2), comb(3)) == F(1, 6)
    assert d_gamma(comb(2), comb(4)) == F(1, 4)
    assert d_gamma(comb(6), comb(8)) == F(1, 12)
    for n in (2, 3, 4, 6, 8):
        assert d_gamma(comb(n), zero_excursion("pc")) == F(1, 2 * n)
    det = d_gamma_detail(comb(6), comb(8))
    assert det.exact and det.certified
    assert det.lo == det.value == det.hi == F(1, 12)


def test_gamma_directed_parts_are_asymmetric():
    assert directed_gamma_sq(comb(8), comb(6)) == F(1, 144)
    assert directed_gamma_sq(comb(6), comb(8)) == F(1, 576)


def test_gamma_branch_and_bound_agrees_with_the_exact_route():
    # Same quantity through two very different algorithms.
    rng = random.Random(163)
    for _ in range(15):
        h = random_excursion(rng, kind="pc", max_pieces=4)
        g = random_excursion(rng, kind="pc", max_pieces=4)
        exact_sq = max(directed_gamma_sq(h, g), directed_gamma_sq(g, h))
        det = d_gamma_detail(h, g)
        root = sqrt_if_square(exact_sq)
        if root is not None:
            assert det.exact
            assert det.value == root
        else:
            assert not det.exact
        assert det.certified
        assert det.hi - det.lo <= 2 * TOL
        assert det.lo * det.lo <= exact_sq <= det.hi * det.hi
        for src, tgt in ((h, g), (g, h)):
            lo, hi = directed_bb(src, tgt, TOL, 6000)
            assert lo * lo <= directed_gamma_sq(src, tgt) <= hi * hi
            assert hi - lo <= 2 * TOL


def test_gamma_scaled_tent_family():
    # Shrinking the tent by c leaves the worst point at the lower peak,
    # at distance (1 - c)/sqrt(5) from the taller graph.
    for c in (F(0), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
        target = (1 - c) ** 2 / 5
        low = tent() if c > 0 else zero_excursion("pl")
        det = d_gamma_detail(low if c == 0 else scaled_tent(c), tent())
        assert det.certified
        assert det.hi - det.lo <= 2 * TOL
        assert det.lo * det.lo <= target <= det.hi * det.hi


def test_gamma_mixed_kind_pair():
    det = d_gamma_detail(tent(), zero_excursion("pc"))
    assert det.certified
    assert det.lo * det.lo <= F(1, 5) <= det.hi * det.hi


def test_gamma_metric_properties_within_tolerance():
    rng = random.Random(167)
    for _ in range(12):
        h = random_excursion(rng, kind="pl", max_pieces=4)
        g = random_excursion(rng, kind="pl", max_pieces=4)
        k = random_excursion(rng, kind="pl", max_pieces=4)
        assert d_gamma(h, h) == 0
        dhg = d_gamma_detail(h, g)
        dgh = d_gamma_detail(g, h)
        assert dhg.value == dgh.value
        dgk = d_gamma_detail(g, k)
        dhk = d_gamma_detail(h, k)
        assert dhk.lo <= dhg.hi + dgk.hi
        assert dhg.hi <= sup_diff(h, g) + 2 * TOL
        assert dhg.lo <= dhg.value <= dhg.hi


def test_excursion_distance_is_the_sum():
    rng = random.Random(173)
    for _ in range(15):
        h = random_excursion(rng)
        g = random_excursion(rng)
        det = d_excursion_detail(h, g)
        assert det.value == det.gamma.value + det.lam
        assert det.lo == det.gamma.lo + det.lam
        assert det.hi == det.gamma.hi + det.lam
        assert det.certified == det.gamma.certified
        assert d_excursion(h, g) == det.value


def test_excursion_distance_pinned_values():
    assert d_excursion(comb(6), comb(8)) == F(1, 12)
    det = d_excursion_detail(tent(), scaled_tent(F(9, 10)))
    surd = F(1, 500)  # (1/(10*sqrt(5)))**2
    assert det.lam == F(1, 11)
    assert (det.lo - det.lam) ** 2 <= surd <= (det.hi - det.lam) ** 2
    assert abs(float(det.value) - 0.13563) < 1e-4


def test_excursion_distance_zero_on_equivalent_functions():
    bumped = pl_excursion((0, F(1, 4), F(1, 2), 1), (0, F(1, 2), 1, 0))
    assert d_excursion(tent(), bumped) == 0
    assert d_excursion(comb(4), comb(4)) == 0


def test_invalid_excursions_raise_the_same_text_from_every_entry():
    bad_pl = Excursion("pl", (F(0), F(1)), (F(1), F(0)))
    bad_pc = Excursion("pc", (F(0), F(1)), (F(1),), (F(0), F(2)))
    unordered = Excursion("pl", (F(0), F(3, 4), F(1, 4), F(1)), (F(0), F(1), F(1), F(0)))
    texts = {
        bad_pl: "invalid excursion: h(0) must be 0",
        bad_pc: "invalid excursion: breakpoint value at index 1 exceeds an adjacent piece value",
        unordered: "invalid excursion: breakpoints must be strictly increasing",
    }
    entries = [d_lambda, d_gamma, d_gamma_detail, d_excursion, d_excursion_detail, sup_diff]
    for bad, text in texts.items():
        good = comb(2) if bad.kind == "pc" else tent()
        calls = [(f, args) for f in entries for args in ((bad, good), (good, bad))]
        calls += [(directed_gamma_sq, (bad, comb(2))), (directed_gamma_sq, (tent(), bad))]
        calls += [(code_excursion, (bad,)), (evaluate, (bad, F(1, 2)))]
        calls += [(infimum, (bad, 0, 1)), (dh, (bad, 0, F(1, 2)))]
        for f, args in calls:
            try:
                f(*args)
                assert False, f.__name__
            except ValidationError as exc:
                assert str(exc) == text, (f.__name__, str(exc))


def test_each_excursion_is_checked_once_and_each_directed_sup_scales_once(monkeypatch):
    validated, scaled, walked = [], [], []
    check, scale = excursions.validate_excursion, excursions._int_excursions
    walk = excursions._on_int_grid
    monkeypatch.setattr(excursions, "validate_excursion", lambda h: validated.append(h) or check(h))
    monkeypatch.setattr(excursions, "_on_int_grid", lambda *x: walked.append(x) or walk(*x))
    for module in (excursions, excursion_metrics):  # the one scaling, wherever it is called
        monkeypatch.setattr(
            module, "_int_excursions", lambda *hs, **kw: scaled.append(hs) or scale(*hs, **kw)
        )
    rng = random.Random(197)
    pairs = [(tent(), scaled_tent(F(9, 10))), (comb(6), comb(8)), (step_one(), tent())]
    for _ in range(4):
        pairs.append((random_excursion(rng, max_pieces=4), random_excursion(rng, max_pieces=4)))
    for h, g in pairs:
        validated.clear()
        d_excursion_detail(h, g)
        assert validated == [h, g]  # d_gamma and d_lambda share one check of each side
        scaled.clear()
        d_gamma_detail(h, g)
        assert len(scaled) == 1  # one scaling for both directed sups
        for f in (sup_diff, d_lambda):
            scaled.clear()
            f(h, g)
            assert len(scaled) == 1, f.__name__  # the pair is scaled once
        scaled.clear()
        walked.clear()
        dh(h, F(1, 3), F(3, 4))
        assert (len(scaled), len(walked)) == (1, 1)  # one scaling and one walk of h
        n = normalize(h)
        validated.clear()
        code_excursion(n)
        assert validated == []


# ---------------------------------------------------------------------------
# Fraction reference for the int branch and bound: the same search with every
# point, distance, bound and heap key in Fractions. The visit order and every
# bound must be the same, so (lo, hi) must be equal. The same search with
# midpoint splits, `midpoint_directed_bb`, is the one the tie split replaced.


def ref_pc_walls(h):
    walls = []
    m = len(h.values)
    for k, t in enumerate(h.breakpoints):
        tops = []
        if k > 0:
            tops.append(h.values[k - 1])
        if k < m:
            tops.append(h.values[k])
        walls.append((t, h.breakpoint_values[k], max(tops)))
    return walls


def ref_epi_features(h):
    """The boundary of epi(h) as closed segments ((ax, ay), (bx, by))."""
    bps, v = h.breakpoints, h.values
    if h.kind == "pl":
        return [((bps[k], v[k]), (bps[k + 1], v[k + 1])) for k in range(len(bps) - 1)]
    horizontals = [((bps[k], v[k]), (bps[k + 1], v[k])) for k in range(len(v))]
    return horizontals + [((x, y1), (x, y2)) for x, y1, y2 in ref_pc_walls(h)]


def ref_seg_dist_sq(px, py, a, b):
    (ax, ay), (bx, by) = a, b
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    if vv == 0:
        return wx * wx + wy * wy
    t = (wx * vx + wy * vy) / vv
    t = min(max(t, 0), 1)
    dx = wx - t * vx
    dy = wy - t * vy
    return dx * dx + dy * dy


def ref_epi_dist_sq(px, py, tgt, features):
    if py >= ref_evaluate(tgt, px):
        return F(0)
    return min(ref_seg_dist_sq(px, py, a, b) for a, b in features)


def ref_outside_subsegments(p, q, tgt):
    """Subsegments of [p, q] (p.x < q.x) whose interiors avoid epi(tgt)."""
    (px, py), (qx, qy) = p, q
    xs = sorted({px, qx} | {t for t in tgt.breakpoints if px < t < qx})

    def src_y(x):
        return py + (qy - py) * (x - px) / (qx - px)

    out = []
    for x1, x2 in zip(xs, xs[1:]):
        y1, y2 = src_y(x1), src_y(x2)
        if tgt.kind == "pl":
            g1, g2 = ref_evaluate(tgt, x1), ref_evaluate(tgt, x2)
        else:
            g1 = g2 = ref_evaluate(tgt, (x1 + x2) / 2)
        d1, d2 = y1 - g1, y2 - g2  # >= 0 means inside on that side
        pieces = [(x1, y1, d1, x2, y2, d2)]
        if (d1 < 0 < d2) or (d2 < 0 < d1):
            xm = x1 + (x2 - x1) * d1 / (d1 - d2)
            ym = src_y(xm)
            pieces = [(x1, y1, d1, xm, ym, F(0)), (xm, ym, F(0), x2, y2, d2)]
        for ax, ay, da, bx, by, db in pieces:
            if da < 0 or db < 0:  # interior outside the epigraph
                out.append(((ax, ay), (bx, by)))
    return out


def ref_midpoint(p, q, features):
    return (p[0] + q[0]) / 2, (p[1] + q[1]) / 2


def ref_tie_point(p, q, features):
    """Where [p, q] splits: where the features k and l nearest its two ends
    tie, located on the quadratic through g = d_k^2 - d_l^2 at its start,
    midpoint and end and rounded down to the 2^-48 grid of the segment; the
    midpoint when k = l, when not g(p) < 0 < g(q), or when the rounded point
    is p."""
    mid = ref_midpoint(p, q, features)
    near_p, near_q = ([ref_seg_dist_sq(*x, a, b) for a, b in features] for x in (p, q))
    k, l = near_p.index(min(near_p)), near_q.index(min(near_q))
    if k == l:
        return mid

    def g(x):
        return ref_seg_dist_sq(*x, *features[k]) - ref_seg_dist_sq(*x, *features[l])

    samples = g(p), g(mid), g(q)
    if not samples[0] < 0 < samples[2]:
        return mid
    scale = lcm(*(x.denominator for x in samples))
    j = floor_root(*(int(x * scale) for x in samples))
    if j == 0:
        return mid
    t = F(j, 2**48)
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def ref_search(src, tgt, tol, budget, split):
    """One directed branch and bound in Fractions, run alone to its end,
    splitting each popped segment at `split(p, q, features)`: (lo, hi, pops)."""
    src = normalize(src)
    tgt = normalize(tgt)
    features = ref_epi_features(tgt)

    def dist_encl(px, py):
        return sqrt_enclosure(ref_epi_dist_sq(px, py, tgt, features))

    bps, vals = src.breakpoints, src.values
    lo = hi_points = F(0)
    if src.kind == "pc":
        segments = [((bps[k], v), (bps[k + 1], v)) for k, v in enumerate(vals)]
        for point in zip(bps, src.breakpoint_values):
            plo, phi = dist_encl(*point)
            lo, hi_points = max(lo, plo), max(hi_points, phi)
    else:
        segments = [((bps[k], vals[k]), (bps[k + 1], vals[k + 1])) for k in range(len(vals) - 1)]

    def seg_ub(p, q, dp_hi, dq_hi):
        cap_sq = min(
            max(ref_seg_dist_sq(*p, a, b), ref_seg_dist_sq(*q, a, b)) for a, b in features
        )
        cap = sqrt_enclosure(cap_sq)[1]
        len_hi = sqrt_enclosure((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)[1]
        return min(cap, (dp_hi + dq_hi + len_hi) / 2)

    heap = []
    counter = 0
    for p, q in segments:
        for a, b in ref_outside_subsegments(p, q, tgt):
            (alo, ahi), (blo, bhi) = dist_encl(*a), dist_encl(*b)
            lo = max(lo, alo, blo)
            heapq.heappush(heap, (-seg_ub(a, b, ahi, bhi), counter, a, b, ahi, bhi))
            counter += 1
    spent = pops = 0
    final_hi = hi_points
    while heap:
        neg_ub, _, a, b, ahi, bhi = heapq.heappop(heap)
        pops += 1
        ub = -neg_ub
        if ub <= lo + tol or spent >= budget:
            final_hi = max(final_hi, ub)
            break
        spent += 1
        cut = split(a, b, features)
        clo, chi = dist_encl(*cut)
        lo = max(lo, clo)
        for s, t, shi, thi in ((a, cut, ahi, chi), (cut, b, chi, bhi)):
            heapq.heappush(heap, (-min(ub, seg_ub(s, t, shi, thi)), counter, s, t, shi, thi))
            counter += 1
    return lo, max(final_hi, lo, hi_points), pops


def ref_directed_bb(src, tgt, tol, budget):
    """The int kernel's search in Fractions: split where the nearest features tie."""
    return ref_search(src, tgt, tol, budget, ref_tie_point)[:2]


def midpoint_directed_bb(src, tgt, tol, budget):
    """The search that splits every segment at its midpoint: (lo, hi, pops)."""
    return ref_search(src, tgt, tol, budget, ref_midpoint)


def ref_horizontal_max_sq(x1, x2, c, tgt, incumbent):
    """Exact max over t in [x1, x2] of squared distance from (t, c) to epi(tgt)."""
    bounds = sorted({x1, x2} | {t for t in tgt.breakpoints if x1 < t < x2})
    horizontals = [
        (tgt.breakpoints[k], tgt.breakpoints[k + 1], tgt.values[k])
        for k in range(len(tgt.values))
    ]
    walls = ref_pc_walls(tgt)
    best = F(0)
    for s1, s2 in zip(bounds, bounds[1:]):
        if c >= ref_evaluate(tgt, (s1 + s2) / 2):
            continue  # subwindow sits inside the epigraph, distance 0
        consts = []
        paras = set()
        for u1, u2, b in horizontals:
            esq = (c - b) ** 2
            if u1 <= s1 and s2 <= u2:
                consts.append(esq)
            elif s2 <= u1:
                paras.add((u1, esq))
            elif s1 >= u2:
                paras.add((u2, esq))
            else:
                raise AssertionError("subdivision bounds must include piece ends")
        for a, y1, y2 in walls:
            if y1 <= c <= y2:
                paras.add((a, F(0)))
            else:
                e = min(abs(c - y1), abs(c - y2))
                paras.add((a, e * e))
        cap = min(consts) if consts else None
        if cap is not None and cap <= best and cap <= incumbent:
            continue  # this subwindow cannot beat what we already have
        paras = sorted(paras)

        def envelope(t):
            return min((t - a) ** 2 + esq for a, esq in paras)

        pmax = max(envelope(s1), envelope(s2)) if paras else None
        if paras:
            for (a1, e1), (a2, e2) in combinations(paras, 2):
                if a1 == a2:
                    continue
                tc = (a2 * a2 + e2 - a1 * a1 - e1) / (2 * (a2 - a1))
                if not (s1 < tc < s2):
                    continue
                vc = (tc - a1) ** 2 + e1
                if vc <= pmax:
                    continue  # the full envelope at tc is <= vc already
                pmax = max(pmax, envelope(tc))
        sub = pmax if cap is None else (cap if pmax is None else min(cap, pmax))
        if sub > best:
            best = sub
    return best


def ref_directed_gamma_sq(src, tgt):
    src = normalize(src)
    tgt = normalize(tgt)
    features = ref_epi_features(tgt)
    best = F(0)
    for point in zip(src.breakpoints, src.breakpoint_values):
        best = max(best, ref_epi_dist_sq(*point, tgt, features))
    for k, v in enumerate(src.values):
        bps = src.breakpoints
        best = max(best, ref_horizontal_max_sq(bps[k], bps[k + 1], v, tgt, best))
    return best


def oracle_pool():
    rng = random.Random(181)
    pool = [tent(), comb(3), step_one(), zero_excursion("pl"), zero_excursion("pc")]
    for kind in ("pl", "pc") * 4:
        pool.append(random_excursion(rng, kind=kind, max_pieces=5))
    return [normalize(h) for h in pool]  # `directed_bb` takes normalized forms


# (budget, tol) settings dealt round-robin over the ordered pairs; tol 0 with
# the full budget stops early only where the sup is met exactly, so it runs
# on such pairs alone
ORACLE_SETTINGS = [
    (budget, tol)
    for budget in (0, 3, 40, 6000)
    for tol in (F(0), F(1, 100), DEFAULT_GAMMA_TOL)
    if (budget, tol) != (6000, 0)
]


def test_int_kernel_matches_the_fraction_branch_and_bound():
    pool = oracle_pool()
    pairs = [(h, g) for h in pool for g in pool]
    kinds = {(h.kind, g.kind) for h, g in pairs}
    assert kinds == {("pl", "pl"), ("pl", "pc"), ("pc", "pl"), ("pc", "pc")}
    for idx, (h, g) in enumerate(pairs):
        budget, tol = ORACLE_SETTINGS[idx % len(ORACLE_SETTINGS)]
        assert directed_bb(h, g, tol, budget) == ref_directed_bb(h, g, tol, budget)
    # pool pairs of each kind combination whose directed sup is rational
    for i, j in ((0, 9), (11, 9), (0, 1), (1, 9), (1, 6), (6, 10)):
        h, g = pool[i], pool[j]
        lo_hi = directed_bb(h, g, 0, 6000)
        assert lo_hi == ref_directed_bb(h, g, 0, 6000)
        assert lo_hi[0] == lo_hi[1] > 0
    # equal bounds pop in push order; here the reverse order ends lower, 89478485/2^29
    h, g = pool[6], pool[1]
    assert directed_bb(h, g, TOL, 6000) == ref_directed_bb(h, g, TOL, 6000) == (F(1, 6), F(1, 6))


def positive_pl(rng):
    """Three pl pieces on the 1/12 grid whose interior values are positive."""
    interior = sorted(rng.sample(range(1, 12), 2))
    values = [F(0)] + [F(rng.randint(1, 4), 4) for _ in range(2)] + [F(rng.randint(0, 4), 4)]
    return pl_excursion([F(0)] + [F(k, 12) for k in interior] + [F(1)], values)


def sawtooth(rng):
    """Four pl pieces alternating between peaks and valleys at distinct levels."""
    interior = sorted(rng.sample(range(1, 12), 3))
    peaks, valleys = rng.sample(range(5, 9), 2), rng.sample(range(1, 4), 2)
    values = [F(0)] + [F(peaks.pop() if k % 2 else valleys.pop(), 8) for k in range(1, 5)]
    return pl_excursion([F(0)] + [F(k, 12) for k in interior] + [F(1)], values)


def test_int_kernel_matches_on_the_benchmarked_shapes():
    rng = random.Random(191)
    pairs = [(positive_pl(rng), positive_pl(rng)) for _ in range(4)]
    pairs += [(sawtooth(rng), sawtooth(rng)) for _ in range(2)]
    # the tent's rising side meets the level 1/2 at 1/4, inside the target's
    # piece (1/8, 1): a crossing cut that is no breakpoint of either side
    crossing = (tent(), pl_excursion((0, F(1, 8), 1), (0, F(1, 2), F(1, 2))))
    outside = ref_outside_subsegments((F(0), F(0)), (F(1, 2), F(1)), crossing[1])
    assert [(a[0], b[0]) for a, b in outside] == [(0, F(1, 8)), (F(1, 8), F(1, 4))]
    pairs.append(crossing)
    for h, g in pairs:  # at the default tolerance and budget, as benchmarked
        for src, tgt in ((h, g), (g, h)):
            src, tgt = normalize(src), normalize(tgt)
            assert directed_bb(src, tgt, TOL, 6000) == ref_directed_bb(src, tgt, TOL, 6000)


def ref_gamma(h, g, tol, budget):
    """(lo, hi, exact, certified) of d_gamma from two directed Fraction searches,
    each run to its own end."""
    (lo1, hi1), (lo2, hi2) = (ref_directed_bb(a, b, tol, budget) for a, b in ((h, g), (g, h)))
    lo, hi = max(lo1, lo2), max(hi1, hi2)
    return lo, hi, lo == hi, hi - lo <= tol


def test_a_floored_second_search_leaves_the_enclosure_unchanged():
    # the second search stops at the first one's lo; every bound it leaves
    # is <= that lo, so the max-combined enclosure is the one of two full runs
    pool = oracle_pool()
    pairs = [(h, g) for h, g in combinations(pool, 2) if "pl" in (h.kind, g.kind)]
    for idx, (h, g) in enumerate(pairs):
        budget, tol = ORACLE_SETTINGS[idx % len(ORACLE_SETTINGS)]
        want = ref_gamma(h, g, tol, budget)
        for a, b in ((h, g), (g, h)):
            det = d_gamma_detail(a, b, tol, budget)
            assert (det.lo, det.hi, det.exact, det.certified) == want
    rng = random.Random(191)  # the benchmarked shapes of the int kernel test
    pairs = [(positive_pl(rng), positive_pl(rng)) for _ in range(4)]
    pairs += [(sawtooth(rng), sawtooth(rng)) for _ in range(2)]
    for h, g in pairs:
        det = d_gamma_detail(h, g)
        assert (det.lo, det.hi, det.exact, det.certified) == ref_gamma(h, g, TOL, 6000)


def test_the_second_directed_search_pops_at_most_to_the_first_ones_lo(monkeypatch):
    pops = []
    pop = heapq.heappop
    monkeypatch.setattr(excursion_metrics.heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
    pairs = [
        # run alone, the two directed searches pop 3 segments between them
        # (24 were every segment split at its midpoint); floored, 2
        (tent(), pl_excursion([0, F(1, 3), F(2, 3), 1], [0, F(3, 4), F(1, 2), 0]), 4),
        # and here 4 (52 at midpoints); floored, 3 (28 at midpoints): each
        # peak where the nearest target feature changes is split at the tie
        (pl_excursion([0, F(1, 3), 1], [0, F(1, 2), 0]), pl_excursion([0, F(2, 3), 1], [0, F(3, 4), 0]), 4),
    ]
    for h, g, most in pairs:
        pops.clear()
        det = d_gamma_detail(h, g)
        assert len(pops) <= most
        assert (det.lo, det.hi) == ref_gamma(normalize(h), normalize(g), TOL, 6000)[:2]


def floor_root(g0, gm, g1):
    """floor(2^48 r) for the root r in (0, 1) of the quadratic through
    (0, g0), (1/2, gm), (1, g1), g0 < 0 < g1, by bisection on its sign."""
    a, b, c = 2 * g0 + 2 * g1 - 4 * gm, 4 * gm - 3 * g0 - g1, g0
    lo, hi, one = 0, 2**48, 2**48
    while hi - lo > 1:
        j = (lo + hi) // 2
        lo, hi = (j, hi) if a * j * j + b * j * one + c * one * one <= 0 else (lo, j)
    return lo


def test_tie_split_is_the_floor_of_the_root():
    rng = random.Random(229)
    samples = [(-1, 0, 1), (-4, -1, 2), (-1, 3, 1), (-3, -3, 1), (-1, 10**6, 1)]
    samples += [(-1, -(2**60), 2**61), (-1, 1, 2**70)]  # roots near 1 and near 0
    for _ in range(300):
        g0, g1 = -rng.randint(1, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 30))
        samples.append((g0, rng.randint(3 * g0, 3 * g1), g1))
    kinds = set()
    for g0, gm, g1 in samples:
        kinds.add((2 * g0 + 2 * g1 > 4 * gm) - (2 * g0 + 2 * g1 < 4 * gm))
        want = floor_root(g0, gm, g1)
        for scale in (1, 3, 2**40 + 1):  # exact at any common scale
            got = excursion_metrics._tie_split(g0 * scale, gm * scale, g1 * scale)
            assert got == (want if 0 < want else None), (g0, gm, g1, scale)
    assert kinds == {-1, 0, 1}  # concave, linear and convex quadratics
    # no sign change, or a tie at an end: no tie point inside
    for g in ((0, 1, 2), (-2, -1, 0), (1, 0, -1), (-1, -2, -3), (2, 1, 1)):
        assert excursion_metrics._tie_split(*g) is None


def two_to_eight_pieces(rng, kind):
    while True:
        h = normalize(random_excursion(rng, kind=kind, max_pieces=8))
        if len(h.breakpoints) > 2:
            return h


def test_tie_splits_keep_the_midpoint_searchs_enclosures_in_fewer_pops(monkeypatch):
    # each directed search, run alone at the default tol and budget, against
    # the one that splits at midpoints: the enclosures overlap, certification
    # is never lost, and pops fall to under a third. A search can still pop
    # a few more where a midpoint lands on a rational maximizer (about 1 in
    # 140 directed searches over 1 000 such pairs, by at most 4 pops)
    pops = []
    pop = heapq.heappop
    monkeypatch.setattr(excursion_metrics.heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
    rng = random.Random(223)
    kinds = [("pl", "pl"), ("pl", "pc"), ("pc", "pl"), ("pc", "pc")] * 8
    total = total_mid = 0
    for h, g in ((two_to_eight_pieces(rng, a), two_to_eight_pieces(rng, b)) for a, b in kinds):
        for src, tgt in ((h, g), (g, h)):
            pops.clear()
            lo, hi = directed_bb(src, tgt, TOL, 6000)
            tie_pops = len(pops)  # the reference pops through heapq too
            mid_lo, mid_hi, mid_pops = midpoint_directed_bb(src, tgt, TOL, 6000)
            assert lo <= mid_hi and mid_lo <= hi
            assert hi - lo <= TOL or mid_hi - mid_lo > TOL
            assert tie_pops <= mid_pops + 4
            total, total_mid = total + tie_pops, total_mid + mid_pops
    assert 3 * total < total_mid, (total, total_mid)


def test_set_up_builds_one_node_per_distinct_subsegment_end(monkeypatch):
    vectors = []
    real = excursion_metrics._dist_sq_vector
    monkeypatch.setattr(
        excursion_metrics, "_dist_sq_vector", lambda *a: vectors.append(a[:3]) or real(*a)
    )
    pool = oracle_pool()
    for h, g in ((h, g) for h in pool for g in pool if "pl" in (h.kind, g.kind)):
        (s, t), _, den = _int_excursions(h, g)
        epi = excursion_metrics._int_epi(t, den)
        bps, vals = s.breakpoints, s.values
        if s.kind == "pc":
            segments = [((x1, v, den), (x2, v, den)) for x1, x2, v in zip(bps, bps[1:], vals)]
            bottoms = list(zip(bps, s.breakpoint_values))
        else:
            ends = [(x, v, den) for x, v in zip(bps, vals)]
            segments, bottoms = list(zip(ends, ends[1:])), []
        subsegments = [
            ab for p, q in segments for ab in excursion_metrics._outside_subsegments(p, q, epi)
        ]
        vectors.clear()
        _directed_bb(s, t, den)
        # consecutive subsegments share an end: each end is one node
        assert len(vectors) == len(bottoms) + len(set().union(*subsegments))
        assert len(set(vectors[len(bottoms):])) == len(vectors) - len(bottoms)


def test_int_square_root_enclosure_matches_the_fraction_one():
    # 2/8 and 9/4 are rational squares, 2/8 only once reduced; 1/3 is not
    for num, den in ((2, 8), (1, 4), (9, 4), (18, 8), (0, 1), (0, 7), (1, 3), (3, 9), (2, 1)):
        lo, hi, d = isqrt_enclosure(num, den)
        assert (F(lo, d), F(hi, d)) == sqrt_enclosure(F(num, den))
        assert (lo == hi) == (sqrt_if_square(F(num, den)) is not None)


def test_pc_gamma_reads_its_root_once(monkeypatch):
    # the exact squared optimum's root is read by one isqrt_enclosure call:
    # the root itself when it is a rational square, else the enclosure that
    # sqrt_enclosure gives, with its midpoint as the value
    reads = []
    monkeypatch.setattr(
        excursion_metrics, "isqrt_enclosure", lambda *a: reads.append(a) or isqrt_enclosure(*a)
    )
    rng = random.Random(163)
    pairs = [(comb(n), comb(m)) for n, m in ((2, 3), (6, 8), (3, 3))]
    pairs += [tuple(random_excursion(rng, kind="pc", max_pieces=4) for _ in "hg") for _ in range(20)]
    kinds = set()
    for h, g in pairs:
        reads.clear()
        ssq = max(directed_gamma_sq(h, g), directed_gamma_sq(g, h))
        det = d_gamma_detail(h, g)
        assert len(reads) == 1
        root = sqrt_if_square(ssq)
        lo, hi = (root, root) if root is not None else sqrt_enclosure(ssq)
        assert (det.value, det.lo, det.hi) == ((lo + hi) / 2, lo, hi)
        assert (det.exact, det.certified) == (root is not None, True)
        kinds.add(det.exact)
    assert kinds == {True, False}


def test_int_kernel_leaves_the_exact_pc_route_unchanged():
    rng = random.Random(163)  # the pairs of the branch-and-bound agreement test
    for _ in range(15):
        h = random_excursion(rng, kind="pc", max_pieces=4)
        g = random_excursion(rng, kind="pc", max_pieces=4)
        for src, tgt in ((h, g), (g, h)):
            assert directed_gamma_sq(src, tgt) == ref_directed_gamma_sq(src, tgt)


def test_tol_is_read_exactly_and_negative_parameters_are_refused(monkeypatch):
    rng = random.Random(1213)
    pairs = [(random_excursion(rng, "pl"), random_excursion(rng, "pl")) for _ in range(6)]
    for h, g in pairs:
        want = d_gamma_detail(h, g, F(1, 1000))
        assert d_gamma_detail(h, g, "1/1000") == d_gamma_detail(h, g, "0.001") == want
        assert d_excursion_detail(h, g, "1/1000").gamma == want
    # both are refused before any search runs: a negative tol, which no
    # enclosure meets, used to spend the whole split budget
    monkeypatch.setattr(excursion_metrics, "_directed_bb", None)
    h, g = pairs[0]
    for f in (d_gamma_detail, d_gamma, d_excursion_detail, d_excursion):
        for (tol, budget), text in (
            ((-1, 6000), "tol must be nonnegative"),
            ((F(-1, 10**9), 6000), "tol must be nonnegative"),
            ((DEFAULT_GAMMA_TOL, -1), "budget must be nonnegative"),
        ):
            try:
                f(h, g, tol, budget)
                assert False, f.__name__
            except ValidationError as exc:
                assert str(exc) == text
