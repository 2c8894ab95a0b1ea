"""The int-scaled metric-axiom check and Prohorov scan against references.

The reference loops below are the plain Fraction enumerations the int layer
replaced; every list they return must come back entry for entry, message for
message, from `validate`, `validate_common` and `check_triangle`. The packed
triangle kernel `spaces._is_metric` is held to a plain triple loop over ints.
"""

import random
from fractions import Fraction

from mmdist import (
    CommonSpaceMeasures,
    build_glued_space,
    check_triangle,
    distortion,
    glued_common_space,
    prohorov,
    prohorov_bruteforce,
    prohorov_condition_holds,
    prohorov_flow,
    prohorov_of_glue,
    validate,
    validate_common,
)
from mmdist.gluing import GluedSpace
from mmdist.spaces import FiniteMMSpace, _is_metric, metric_violations

F = Fraction


def ref_space_violations(d, weights):
    out = []
    n = len(d)
    for i, w in enumerate(weights):
        if w < 0:
            out.append(f"weight {i} is negative: {w}")
    total = sum(weights)
    if total != 1:
        out.append(f"weights sum to {total}, expected 1")
    for i in range(n):
        if d[i][i] != 0:
            out.append(f"dist[{i}][{i}] = {d[i][i]}, expected 0")
        for j in range(i + 1, n):
            if d[i][j] < 0:
                out.append(f"dist[{i}][{j}] is negative: {d[i][j]}")
            if d[i][j] != d[j][i]:
                out.append(f"dist[{i}][{j}] != dist[{j}][{i}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    out.append(
                        f"triangle violation: dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]"
                    )
    return out


def ref_common_violations(d, mu, nu):
    out = []
    n = len(d)
    for name, vec in (("mu", mu), ("nu", nu)):
        if any(w < 0 for w in vec):
            out.append(f"{name} has a negative entry")
        if sum(vec) != 1:
            out.append(f"{name} sums to {sum(vec)}, expected 1")
    for i in range(n):
        if d[i][i] != 0:
            out.append(f"dist[{i}][{i}] != 0")
        for j in range(i + 1, n):
            if d[i][j] < 0:
                out.append(f"dist[{i}][{j}] is negative")
            if d[i][j] != d[j][i]:
                out.append(f"dist[{i}][{j}] != dist[{j}][{i}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    out.append(f"triangle violation at ({i}, {j}) via {k}")
    return out


def ref_triangles(d):
    n = len(d)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if d[i][j] > d[i][k] + d[k][j]
    ]


def ref_int_violations(m):
    """`metric_violations` of int rows by the plain loops: diagonal, then
    negative and asymmetric per pair j > i, then every failing triangle."""
    n = len(m)
    out = []
    for i in range(n):
        if m[i][i] != 0:
            out.append(("diagonal", i, i, None))
        for j in range(i + 1, n):
            if m[i][j] < 0:
                out.append(("negative", i, j, None))
            if m[i][j] != m[j][i]:
                out.append(("asymmetric", i, j, None))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] > m[i][k] + m[k][j]:
                    out.append(("triangle", i, j, k))
    return out


def l1_ints(rng, n, bound):
    """L1 distances of n random points of [0, bound]^2, as int rows."""
    pts = [(rng.randint(0, bound), rng.randint(0, bound)) for _ in range(n)]
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in pts] for p in pts]


def tight_triangle(rng, m, slack):
    """`m` with one pair (i, j) set to min over k of m[i][k] + m[k][j], plus
    `slack`: 0 keeps a metric with a tight triangle, 1 fails one by a unit."""
    i, j = rng.sample(range(len(m)), 2)
    m[i][j] = m[j][i] = min(m[i][k] + m[k][j] for k in range(len(m)) if k not in (i, j)) + slack
    return m


def broken_ints(rng, m, kind):
    """`m` with one axiom broken: by a nonzero diagonal, a negative entry, an
    asymmetric pair or a triangle that fails by exactly one unit."""
    n = len(m)
    i, j = rng.sample(range(n), 2)
    if kind == "diagonal":
        m[i][i] = rng.randint(1, 10**30)
    elif kind == "negative":
        m[i][j] = m[j][i] = -rng.randint(1, 10**30)
    elif kind == "asymmetric":
        m[i][j] += rng.choice((-1, 1)) if m[i][j] else 1
    else:
        tight_triangle(rng, m, 1)
    return m


def test_packed_triangle_kernel_equals_the_triple_loop():
    rng = random.Random(2710)
    kinds = ("diagonal", "negative", "asymmetric", "triangle")
    seen = {"metric": 0, "tight": 0, "random": 0, **dict.fromkeys(kinds, 0)}
    for idx in range(1200):
        n = idx % 13
        bound = rng.choice((0, 1, 4, 10**3, 5 * 10**29))  # entries up to 10^30
        m = l1_ints(rng, n, bound)
        case = "metric"
        if n >= 3 and idx % 3 == 1:
            case = rng.choice(kinds + ("tight",))
            m = tight_triangle(rng, m, 0) if case == "tight" else broken_ints(rng, m, case)
        elif n >= 1 and idx % 3 == 2:
            case = "random"  # symmetric, zero diagonal, often not metric
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.randint(0, max(bound, 1))
        want = ref_int_violations(m)
        assert _is_metric(m) == (not want)
        assert metric_violations(m) == want
        seen[case] += 1
        if case in kinds:
            assert any(kind == case for kind, *_ in want)
        elif case == "tight":
            assert want == []
    assert min(seen.values()) >= 40
    for n in (60, 120):
        m = l1_ints(rng, n, 10**30 // 2)
        assert _is_metric(m) and ref_int_violations(m) == []
        m = tight_triangle(rng, m, 1)
        want = ref_int_violations(m)
        assert not _is_metric(m) and want and metric_violations(m) == want


def grid_metric(rng, n):
    """L1 distances of random lattice points over a random denominator; a
    repeated point gives zero off-diagonal entries (a pseudometric)."""
    den = rng.choice((1, 2, 3, 4, 6, 12))
    pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
    return [[F(abs(p[0] - q[0]) + abs(p[1] - q[1]), den) for q in pts] for p in pts]


def random_weights(rng, n, zeros=True):
    raw = [rng.randint(0 if zeros else 1, 5) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    return [F(r, sum(raw)) for r in raw]


def injected(rng, d):
    """A copy of `d` with one broken axiom (or left as is when n == 1)."""
    d = [row[:] for row in d]
    n = len(d)
    if n < 2:
        return d
    i, j = rng.sample(range(n), 2)
    kind = rng.choice(("triangle", "symmetry", "negative", "diagonal"))
    if kind == "triangle":
        d[i][j] = d[j][i] = sum(map(sum, d)) + F(1, 3)
    elif kind == "symmetry":
        d[i][j] += F(1, 7)
    elif kind == "negative":
        d[i][j] = d[j][i] = -F(1, 5)
    else:
        d[i][i] = F(1, 2)
    return d


def seeded_matrices(count=240):
    rng = random.Random(2024)
    for idx in range(count):
        n = rng.randint(1, 8)
        d = grid_metric(rng, n)
        if idx % 4 == 1:
            d = injected(rng, d)
        elif idx % 4 == 2:
            d = injected(rng, injected(rng, d))
        elif idx % 4 == 3 and rng.random() < 0.5:
            # a kick of 1/4 on one entry: asymmetric, often a triangle too
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            d[i][j] += F(1, 4)
        weights = random_weights(rng, n)
        if idx % 8 == 3:
            weights[0] += F(1, 9)
        yield d, weights


def test_metric_checks_equal_the_fraction_reference_loops():
    valid = []
    for d, weights in seeded_matrices():
        n = len(d)
        dist = tuple(map(tuple, d))
        space = FiniteMMSpace(tuple(f"p{i}" for i in range(n)), dist, tuple(weights))
        want = ref_space_violations(dist, weights)
        assert validate(space) == want
        nu = tuple(reversed(weights))
        cm = CommonSpaceMeasures(dist, tuple(weights), nu)
        assert validate_common(cm) == ref_common_violations(dist, weights, nu)
        glued = GluedSpace(1, n - 1, dist, tuple(weights), nu)
        assert check_triangle(glued) == ref_triangles(dist)
        valid.append(not want)
    assert len(valid) == 240 and 0 < sum(valid) < 240


def test_flow_equals_bruteforce_with_zero_weights_and_zero_distances():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randint(1, 8)
        d = tuple(map(tuple, grid_metric(rng, n)))
        cm = CommonSpaceMeasures(d, tuple(random_weights(rng, n)), tuple(random_weights(rng, n)))
        v = prohorov_flow(cm)
        assert v == prohorov_bruteforce(cm)
        # the same instance with its weights written as "p/q" strings
        text = CommonSpaceMeasures(d, tuple(map(str, cm.mu)), tuple(map(str, cm.nu)))
        assert validate_common(text) == []
        assert prohorov_flow(text) == prohorov(text) == prohorov_bruteforce(text) == v
        for eps in (v, v + F(1, 997)):
            assert prohorov_condition_holds(text, eps) == prohorov_condition_holds(cm, eps)


def test_glue_prohorov_equals_the_flow_route_with_zero_weights():
    rng = random.Random(79)
    for _ in range(60):
        spaces = []
        for _ in range(2):
            n = rng.randint(1, 4)
            d = tuple(map(tuple, grid_metric(rng, n)))
            spaces.append(FiniteMMSpace(tuple(map(str, range(n))), d, tuple(random_weights(rng, n))))
        a, b = spaces
        cells = [(i, j) for i in range(a.n) for j in range(b.n)]
        pairs = rng.sample(cells, rng.randint(1, len(cells)))
        eps = distortion(pairs, a, b) / 2 + F(rng.randint(0, 3), 4)
        g = build_glued_space(a, b, pairs, eps)
        assert prohorov_of_glue(g) == prohorov_flow(glued_common_space(g))
