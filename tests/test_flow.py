"""Couplings and exact bipartite flow, cross-checked against a min-cut oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    Coupling,
    ValidationError,
    complete_subcoupling,
    max_subcoupling,
    validate_coupling,
)
from mmdist.flow import Transport

F = Fraction


def rand_weights(rng, n):
    w = [rng.randint(0, 6) for _ in range(n)]
    if sum(w) == 0:
        w[rng.randrange(n)] = 1
    s = sum(w)
    return tuple(F(x, s) for x in w)


def min_cut_mass(mu, nu, allowed):
    """Max subcoupling mass by exhaustive min cut.

    Edge capacities min(mu_i, nu_j) never bind below the source/sink caps,
    so max flow equals min over row subsets A of mu(A complement) + nu(N(A)).
    """
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


def test_max_subcoupling_hand_cases():
    mu = (F(1, 2), F(1, 2))
    nu = (F(1, 2), F(1, 2))
    mass, cells = max_subcoupling(mu, nu, [(0, 0), (1, 1)])
    assert mass == F(1)
    assert cells == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    mass, cells = max_subcoupling(mu, nu, [(0, 1)])
    assert mass == F(1, 2)
    assert cells == {(0, 1): F(1, 2)}
    mass, cells = max_subcoupling(mu, nu, [])
    assert mass == F(0)
    assert cells == {}


def test_direct_fill_is_rerouted_to_a_maximum_flow():
    # opening (0, 0) fills it with 1/2 and spends row 0 and column 0, so
    # (1, 0) and (0, 1) open empty: the fill alone carries 1/2, and augment
    # reroutes r1 -> c0 -> r0 -> c1 to carry 1
    half = F(1, 2)
    transport = Transport((half, half), (half, half))
    for i, j in ((0, 0), (1, 0), (0, 1)):
        transport.allow(i, j)
    assert transport.mass == half and transport.cells() == {(0, 0): half}
    assert transport.augment() == 1
    assert transport.cells() == {(1, 0): half, (0, 1): half}
    assert max_subcoupling((half, half), (half, half), [(0, 0), (1, 0), (0, 1)]) == (
        1,
        {(1, 0): half, (0, 1): half},
    )


def test_max_subcoupling_matches_min_cut_oracle():
    rng = random.Random(17)
    for _ in range(150):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 5)
        mu = rand_weights(rng, n1)
        nu = rand_weights(rng, n2)
        allowed = [
            (i, j) for i in range(n1) for j in range(n2) if rng.random() < 0.5
        ]
        mass, cells = max_subcoupling(mu, nu, allowed)
        assert mass == min_cut_mass(mu, nu, allowed)
        assert set(cells) <= set(allowed)
        assert all(x > 0 for x in cells.values())
        assert sum(cells.values(), F(0)) == mass
        for i in range(n1):
            assert sum((x for (a, _), x in cells.items() if a == i), F(0)) <= mu[i]
        for j in range(n2):
            assert sum((x for (_, b), x in cells.items() if b == j), F(0)) <= nu[j]


@st.composite
def transport_runs(draw):
    """Int supplies and demands (totals may differ) and batches of cells,
    duplicates included."""
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(1, 5))
    mu = draw(st.lists(st.integers(0, 6), min_size=n1, max_size=n1))
    nu = draw(st.lists(st.integers(0, 6), min_size=n2, max_size=n2))
    cell = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    batches = draw(st.lists(st.lists(cell, max_size=6), min_size=1, max_size=5))
    return mu, nu, batches


@settings(max_examples=100)
@given(transport_runs())
def test_incremental_transport_matches_min_cut_after_every_batch(run):
    # augmenting from the previous batch's flow reaches the same mass as a
    # flow from scratch on every cell allowed so far
    mu, nu, batches = run
    transport = Transport(mu, nu)
    allowed = []
    for batch in batches:
        for i, j in batch:
            transport.allow(i, j)
        allowed += batch
        mass = transport.augment()
        assert type(mass) is int and mass == min_cut_mass(mu, nu, allowed)
        cells = transport.cells()
        assert set(cells) <= set(allowed)
        assert all(x > 0 for x in cells.values())
        assert sum(cells.values()) == mass
        for i in range(len(mu)):
            assert sum(x for (a, _), x in cells.items() if a == i) <= mu[i]
        for j in range(len(nu)):
            assert sum(x for (_, b), x in cells.items() if b == j) <= nu[j]


def test_max_subcoupling_rejects_out_of_range_cells():
    for cell in ((0, 1), (1, 0), (-1, 0), (0, -1)):
        try:
            max_subcoupling((F(1),), (F(1),), [(0, 0), cell])
            assert False
        except ValidationError as exc:
            assert str(exc) == f"cell {cell} out of range"


def test_complete_subcoupling_extends_without_touching_cells():
    rng = random.Random(23)
    for _ in range(100):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 5)
        mu = rand_weights(rng, n1)
        nu = rand_weights(rng, n2)
        allowed = [
            (i, j) for i in range(n1) for j in range(n2) if rng.random() < 0.4
        ]
        mass, cells = max_subcoupling(mu, nu, allowed)
        coupling = complete_subcoupling(cells, mu, nu)
        assert validate_coupling(coupling, mu, nu) == []
        for (i, j), x in cells.items():
            assert coupling.matrix[i][j] >= x
        if mass == 1:
            for (i, j), x in cells.items():
                assert coupling.matrix[i][j] == x


def test_complete_subcoupling_rejects_overfull_cells():
    mu = (F(1, 2), F(1, 2))
    nu = (F(1, 2), F(1, 2))
    try:
        complete_subcoupling({(0, 0): F(3, 4)}, mu, nu)
        assert False
    except ValidationError:
        pass


def test_complete_subcoupling_refuses_foreign_cells_and_negative_masses():
    mu = nu = (F(1, 2), F(1, 2))
    for cells, message in (
        ({(-1, 0): F(1, 2)}, "cell (-1, 0) out of range"),
        ({(0, -1): F(1, 2)}, "cell (0, -1) out of range"),
        ({(2, 0): F(1, 2)}, "cell (2, 0) out of range"),
        ({(0, 2): F(1, 4)}, "cell (0, 2) out of range"),
        ({(0, 0): F(-1, 2)}, "cell (0, 0) has negative mass -1/2"),
        ({(1, 1): F(1, 4), (0, 1): F(-1, 8)}, "cell (0, 1) has negative mass -1/8"),
    ):
        try:
            complete_subcoupling(cells, mu, nu)
            assert False
        except ValidationError as exc:
            assert str(exc) == message


def test_coupling_marginals_and_mass_where():
    c = Coupling(((F(1, 4), F(1, 4)), (F(0), F(1, 2))))
    assert c.shape == (2, 2)
    assert c.row_marginal() == (F(1, 2), F(1, 2))
    assert c.col_marginal() == (F(1, 4), F(3, 4))
    assert c.mass_where(lambda i, j: i == j) == F(3, 4)
    assert c.mass_where(lambda i, j: i != j) == F(1, 4)


def test_validate_coupling_flags_bad_marginals():
    c = Coupling(((F(1, 2), F(0)), (F(0), F(1, 2))))
    assert validate_coupling(c, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))) == []
    out = validate_coupling(c, (F(1), F(0)), (F(1, 2), F(1, 2)))
    assert any("row 0" in v for v in out)
    neg = Coupling(((F(3, 2), F(-1, 2)), (F(-1, 2), F(1, 2))))
    assert any("negative" in v for v in validate_coupling(neg, (F(1), F(0)), (F(1), F(0))))
