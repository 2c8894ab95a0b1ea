"""Acceptance run: ten criteria, one printed pass/fail line each.

Run with -s to see the lines as they happen; pytest shows them on failure
anyway. Every numeric claim is exact rational arithmetic unless the line
says otherwise, and the slow criteria carry their stated runtime budgets.
"""

import random
import time
from fractions import Fraction

from mmdist import (
    CommonSpaceMeasures,
    box_lambda,
    canonicalize,
    code_excursion,
    d_gamma_detail,
    d_lambda,
    four_point_check,
    glued_upper_bound,
    gromov_prohorov,
    mm_space,
    pl_cut_points,
    pl_excursion,
    prohorov_bruteforce,
    prohorov_flow,
    random_excursion,
    run_continuity_check,
    run_counterexample,
    run_lipschitz_check,
    run_theorem_check,
    sample_mm_space,
    tent,
)
from mmdist.excursion_metrics import DEFAULT_GAMMA_TOL

F = Fraction


def announce(num, ok, desc):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, desc


def rand_weights(rng, n):
    w = [rng.randint(0, 6) for _ in range(n)]
    if sum(w) == 0:
        w[rng.randrange(n)] = 1
    s = sum(w)
    return tuple(F(x, s) for x in w)


def min_cut_mass(mu, nu, allowed):
    n1 = len(mu)
    neigh = [set() for _ in range(n1)]
    for i, j in set(allowed):
        neigh[i].add(j)
    best = None
    for bits in range(1 << n1):
        cols = set()
        val = F(0)
        for i in range(n1):
            if bits >> i & 1:
                cols |= neigh[i]
            else:
                val += mu[i]
        val += sum((nu[j] for j in cols), F(0))
        if best is None or val < best:
            best = val
    return best


def oracle_box(a, b, lam):
    """Exact box value by enumerating every subset of the cell grid."""
    a, b = canonicalize(a), canonicalize(b)
    cells = [(i, j) for i in range(a.n) for j in range(b.n)]
    best = None
    for bits in range(1 << len(cells)):
        kept = tuple(cells[k] for k in range(len(cells)) if bits >> k & 1)
        dis = F(0)
        for i1, j1 in kept:
            for i2, j2 in kept:
                gap = abs(a.dist[i1][i2] - b.dist[j1][j2])
                if gap > dis:
                    dis = gap
        obj = max(dis, (1 - min_cut_mass(a.weights, b.weights, kept)) / lam)
        if best is None or obj < best:
            best = obj
    return best


def theorem_pairs(seed, count, n_max):
    """The random pair stream of the theorem experiment, minus the pinned pair."""
    for idx in range(1, count + 1):
        a = sample_mm_space(seed * 2_000_003 + 2 * idx, n_max=n_max)
        b = sample_mm_space(seed * 2_000_003 + 2 * idx + 1, n_max=n_max)
        yield a, b


def test_acceptance_01_gluing_search_equals_gp():
    started = time.perf_counter()
    report = run_theorem_check(seed=42, count=200, n_max=3)
    elapsed = time.perf_counter() - started
    rows = [inst for inst in report.instances if inst["id"].startswith("random-")]
    equal = sum(1 for inst in rows if inst["checks"]["glue_equals_gp"])
    max_gap = F(report.summary["max_glue_gap"]["rational"])
    ok = (
        report.passed
        and len(rows) == 200
        and equal == 200
        and max_gap == 0
        and elapsed < 120
    )
    announce(
        1,
        ok,
        f"gluing search equals gp exactly on {equal}/200 random pairs "
        f"(n <= 3) in {elapsed:.1f}s (budget 120s)",
    )


def test_acceptance_02_corollary_chain():
    pairs = list(theorem_pairs(42, 200, 3))
    for idx in range(100):
        a = sample_mm_space(777_000_001 + 2 * idx, n_max=4)
        b = sample_mm_space(777_000_002 + 2 * idx, n_max=4)
        pairs.append((a, b))
    bad = 0
    for a, b in pairs:
        gp = gromov_prohorov(a, b)
        box_one = box_lambda(a, b, F(1))
        if not gp <= box_one <= 2 * gp:
            bad += 1
    ok = bad == 0 and len(pairs) == 300
    announce(
        2,
        ok,
        f"gp <= box_1 <= 2*gp exact on the 200 theorem pairs plus 100 pairs "
        f"with n <= 4, {bad} violations",
    )


def test_acceptance_03_closed_forms_with_oracles():
    a = mm_space(("x",), ((F(0),),), (F(1),))
    b = mm_space(
        ("y0", "y1"),
        ((F(0), F(1)), (F(1), F(0))),
        (F(3, 4), F(1, 4)),
    )
    gp = gromov_prohorov(a, b)
    box_half = box_lambda(a, b, F(1, 2))
    # Dropping the light cell costs (1 - 3/4)/(1/2) = 1/2 with no distortion,
    # keeping both cells costs distortion 1, so the subset oracle gives 1/2.
    enumerated = oracle_box(a, b, F(1, 2))
    # Gluing route: put the single point at distance e from the heavy point
    # (hence 1 + e from the light one) and take the Prohorov distance of the
    # two pushforward measures on the glued three point space.
    glue_values = []
    for k in range(17):
        e = F(k, 8)
        dist = (
            (F(0), e, 1 + e),
            (e, F(0), F(1)),
            (1 + e, F(1), F(0)),
        )
        cm = CommonSpaceMeasures(dist, (F(1), F(0), F(0)), (F(0), F(3, 4), F(1, 4)))
        glue_values.append(prohorov_flow(cm))
    searched = glued_upper_bound(a, b).value
    ok = (
        gp == F(1, 4)
        and box_half == F(1, 2)
        and enumerated == F(1, 2)
        and min(glue_values) == F(1, 4)
        and glue_values[2] == F(1, 4)
        and searched == F(1, 4)
    )
    announce(
        3,
        ok,
        "point vs two points (r=1, p=3/4): gp = 1/4 and box_half = 1/2, "
        "confirmed by subset enumeration and a hand-built gluing family",
    )


def test_acceptance_04_prohorov_routes_agree():
    started = time.perf_counter()
    rng = random.Random(4)
    bad = 0
    for _ in range(500):
        sp = sample_mm_space(rng.randint(0, 10**9), n_max=6)
        cm = CommonSpaceMeasures(
            sp.dist, rand_weights(rng, sp.n), rand_weights(rng, sp.n)
        )
        if prohorov_flow(cm) != prohorov_bruteforce(cm):
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 60
    announce(
        4,
        ok,
        f"flow route equals brute force on 500 instances (n <= 6), "
        f"{bad} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_05_lipschitz_bound():
    report = run_lipschitz_check(seed=7, count=100)
    max_ratio = F(report.summary["max_ratio"]["rational"])
    ok = (
        report.passed
        and report.totals["instances"] == 101
        and report.summary["exact_instances"] > 0
        and max_ratio <= 1
    )
    announce(
        5,
        ok,
        f"coded-tree distance <= 2*sup|h-g| on 100 random pl pairs, "
        f"{report.totals['failures']} violations, worst gp/(2*sup) = {max_ratio}",
    )


def test_acceptance_06_four_point_condition():
    rng = random.Random(6)
    bad = 0
    for _ in range(200):
        coded = code_excursion(random_excursion(rng))
        if four_point_check(coded.space):
            bad += 1
    ok = bad == 0
    announce(
        6,
        ok,
        f"every coded space of 200 random excursions satisfies the four "
        f"point condition exactly, {bad} failures",
    )


def test_acceptance_07_counterexample_table():
    ns = (2, 3, 4, 6, 8)
    report = run_counterexample(n_list=ns)
    rows = {inst["id"]: inst for inst in report.instances}
    offdiag = [(n, m) for i, n in enumerate(ns) for m in ns[i + 1 :]]
    dexc_small = all(
        F(rows[f"pair-{n}-{m}"]["d_excursion"]["rational"]) < F(1, 5)
        for n, m in offdiag
        if n >= 6 and m >= 6
    )
    min_gp = F(report.summary["min_positive_gp"]["rational"])
    gp_bounded = all(
        F(rows[f"pair-{n}-{m}"]["gp_coded"]["rational"]) >= min_gp
        for n, m in offdiag
    )
    limits = all(
        F(rows[f"limits-{n}"]["d_gamma_to_zero"]["rational"]) == F(1, 2 * n)
        for n in ns
    )
    ok = report.passed and dexc_small and gp_bounded and min_gp >= F(1, 10) and limits
    announce(
        7,
        ok,
        f"comb table: d_excursion < 1/5 once n,m >= 6 while coded gp stays "
        f">= {min_gp}, and d_gamma(h_n, 0) = 1/(2n) exactly",
    )


def test_acceptance_08_continuity_schedules():
    report = run_continuity_check(seed=0, schedule=10)
    value_rows = {i["step"]: i for i in report.instances if i["mode"] == "value"}
    value_ok = all(
        F(value_rows[k]["envelope"]["rational"]) == F(2) ** (1 - k)
        for k in range(1, 11)
    )
    # The certified envelope dominates the true coded-tree distance; also
    # compute that distance exactly for every step of the value schedule.
    base = tent()
    for k in range(1, 11):
        factor = F(1, 2**k)
        g = pl_excursion(base.breakpoints, tuple(v * (1 - factor) for v in base.values))
        cuts = tuple(sorted(set(pl_cut_points(base)) | set(pl_cut_points(g))))
        ca = code_excursion(base, resolution=cuts)
        cb = code_excursion(g, resolution=cuts)
        if not gromov_prohorov(ca.space, cb.space) <= F(2) ** (1 - k):
            value_ok = False
    break_rows = [i for i in report.instances if i["mode"] == "breakpoint"]
    break_rows.sort(key=lambda i: i["step"])
    envs = [F(i["envelope"]["rational"]) for i in break_rows]
    halving = all(envs[i + 1] == envs[i] / 2 for i in range(1, len(envs) - 1))
    enveloped = all(
        F(i["gp_upper"]["rational"]) <= F(i["envelope"]["rational"])
        for i in break_rows[1:]
    )
    dexc_down = all(
        F(break_rows[i + 1]["dexc_hi"]["rational"])
        <= F(break_rows[i]["dexc_hi"]["rational"])
        for i in range(1, len(break_rows) - 1)
    )
    ok = report.passed and value_ok and envs[0] == 0 and halving and enveloped and dexc_down
    announce(
        8,
        ok,
        "value jitter keeps coded gp <= 2^(1-k) for k = 1..10 and breakpoint "
        "jitter stays under a halving envelope while d_excursion shrinks",
    )


def test_acceptance_09_metric_axioms():
    rng = random.Random(9)
    bad_prohorov = 0
    for _ in range(50):
        sp = sample_mm_space(rng.randint(0, 10**9), n_max=5)
        mu, nu, rho = (rand_weights(rng, sp.n) for _ in range(3))
        d_mn = prohorov_flow(CommonSpaceMeasures(sp.dist, mu, nu))
        d_nm = prohorov_flow(CommonSpaceMeasures(sp.dist, nu, mu))
        d_nr = prohorov_flow(CommonSpaceMeasures(sp.dist, nu, rho))
        d_mr = prohorov_flow(CommonSpaceMeasures(sp.dist, mu, rho))
        d_mm = prohorov_flow(CommonSpaceMeasures(sp.dist, mu, mu))
        if d_mn != d_nm or d_mm != 0 or d_mr > d_mn + d_nr:
            bad_prohorov += 1
    bad_gp = 0
    for _ in range(50):
        a, b, c = (sample_mm_space(rng.randint(0, 10**9), n_max=3) for _ in range(3))
        d_ab = gromov_prohorov(a, b)
        d_ba = gromov_prohorov(b, a)
        d_bc = gromov_prohorov(b, c)
        d_ac = gromov_prohorov(a, c)
        if d_ab != d_ba or gromov_prohorov(a, a) != 0 or d_ac > d_ab + d_bc:
            bad_gp += 1
    slack = 2 * DEFAULT_GAMMA_TOL
    bad_excursion = 0
    for _ in range(50):
        h, g, f = (random_excursion(rng, kind="pl", max_pieces=4) for _ in range(3))
        lam_hg, lam_gf, lam_hf = d_lambda(h, g), d_lambda(g, f), d_lambda(h, f)
        gam_hg, gam_gf, gam_hf = (
            d_gamma_detail(h, g),
            d_gamma_detail(g, f),
            d_gamma_detail(h, f),
        )
        lam_ok = lam_hf <= lam_hg + lam_gf
        gam_ok = gam_hf.lo <= gam_hg.hi + gam_gf.hi + slack
        exc_ok = (
            gam_hf.lo + lam_hf
            <= (gam_hg.hi + lam_hg) + (gam_gf.hi + lam_gf) + slack
        )
        if not (lam_ok and gam_ok and exc_ok):
            bad_excursion += 1
    ok = bad_prohorov == 0 and bad_gp == 0 and bad_excursion == 0
    announce(
        9,
        ok,
        f"metric axioms: prohorov and gp exact on 50 triples each "
        f"({bad_prohorov}, {bad_gp} bad), excursion triangles within "
        f"2x certification tolerance on 50 pl triples ({bad_excursion} bad)",
    )


def test_acceptance_10_deterministic_reports():
    reruns = {
        "theorem-check": lambda: run_theorem_check(seed=11, count=20, n_max=3),
        "lipschitz": lambda: run_lipschitz_check(seed=11, count=20),
        "counterexample": lambda: run_counterexample(n_list=(2, 3, 4)),
        "continuity": lambda: run_continuity_check(seed=11, schedule=4),
    }
    stale = [name for name, fn in reruns.items() if fn().to_json() != fn().to_json()]
    ok = not stale
    announce(
        10,
        ok,
        f"rerunning every experiment with a fixed seed reproduces byte-identical "
        f"JSON ({'all stable' if ok else stale})",
    )
