"""The union-find quotient by distance 0, kept as a test oracle.

The package reads each point's class off its row (`spaces._quotient`: the
first zero in row i), which relies on the triangle inequality making
distance 0 transitive. These readers merge the zero pairs one by one
instead, as `canonicalize` and the excursion coder did before, so tests can
compare the two without calling the package's quotient.
"""


def class_roots(n, pairs) -> list:
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


def zero_pairs(n, dist):
    """The pairs (i, j), i < j, with dist(i, j) == 0."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if dist(i, j) == 0]


def ref_quotient(space):
    """(labels, dist, weights) of a space merged over its zero pairs, its
    weights summed, the classes of weight 0 dropped and the rest in order
    of their roots."""
    n = space.n
    roots = class_roots(n, zero_pairs(n, lambda i, j: space.dist[i][j]))
    class_weight = {}
    for r, w in zip(roots, space.weights):
        class_weight[r] = class_weight.get(r, 0) + w
    reps = sorted(r for r, w in class_weight.items() if w > 0)
    return (
        tuple(space.labels[r] for r in reps),
        tuple(tuple(space.dist[a][b] for b in reps) for a in reps),
        tuple(class_weight[r] for r in reps),
    )
