import random

import pytest
from helpers import maximal_matchings as brute_maximal

from polysched.matchings import (
    MATCHING_CAP,
    MatchingCapExceeded,
    enumerate_maximal_matchings,
    maximum_matching_size,
)
from polysched.satred import CnfFormula, compile_formula

# a broken blossom tends to loop rather than return a wrong size
pytestmark = pytest.mark.usefixtures("time_limit")


def test_triangle_three_singletons():
    edges = ((0, 1), (0, 2), (1, 2))
    found = enumerate_maximal_matchings(3, edges)
    assert sorted(found, key=sorted) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_path_p4():
    edges = ((0, 1), (1, 2), (2, 3))
    found = set(enumerate_maximal_matchings(4, edges))
    assert found == {frozenset({1}), frozenset({0, 2})}


def test_star():
    k = 5
    edges = tuple((0, i + 1) for i in range(k))
    found = enumerate_maximal_matchings(k + 1, edges)
    assert len(found) == k
    assert all(len(mm) == 1 for mm in found)


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 8)
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        m = rng.randint(1, min(len(pool), 10))
        edges = tuple(sorted(rng.sample(pool, m)))
        found = enumerate_maximal_matchings(n, edges)
        assert len(found) == len(set(found)), "duplicates"
        assert set(found) == brute_maximal(n, edges)


def test_cap_is_typed_error():
    edges = tuple((0, i + 1) for i in range(30))
    with pytest.raises(MatchingCapExceeded):
        enumerate_maximal_matchings(31, edges)
    with pytest.raises(MatchingCapExceeded):
        enumerate_maximal_matchings(31, edges[:MATCHING_CAP + 1])
    assert len(enumerate_maximal_matchings(31, edges[:MATCHING_CAP])) == MATCHING_CAP
    assert len(enumerate_maximal_matchings(31, edges, cap=30)) == 30


def test_maximum_matching_size_beyond_cap_uses_blossom():
    # odd cycle C9: maximum matching 4
    edges = tuple((i, (i + 1) % 9) for i in range(9))
    assert maximum_matching_size(9, edges) == 4
    # 30 edges, beyond the enumeration cap: C9 plus 21 disjoint edges on
    # fresh persons, so the maximum matching is 4 + 21
    extra = tuple((9 + 2 * i, 10 + 2 * i) for i in range(21))
    assert len(edges + extra) == 30 > MATCHING_CAP
    assert maximum_matching_size(51, edges + extra) == 25


def test_maximum_matching_size_is_largest_maximal_matching():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 9)
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        m = rng.randint(1, min(len(pool), 10))
        edges = tuple(sorted(rng.sample(pool, m)))
        assert maximum_matching_size(n, edges) == max(map(len, brute_maximal(n, edges)))


def test_empty_graph():
    assert enumerate_maximal_matchings(3, ()) == [frozenset()]
    assert maximum_matching_size(3, ()) == 0


def test_maximum_matching_size_is_largest_enumerated_maximal_matching():
    # 2,000 seeded graphs up to the enumeration cap, with edge lists in
    # random order, so the greedy seed and the search order vary
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(2, 12)
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = tuple(rng.sample(pool, rng.randint(0, min(len(pool), MATCHING_CAP))))
        expected = max(map(len, enumerate_maximal_matchings(n, edges)))
        assert maximum_matching_size(n, edges) == expected, (n, edges)


def _networkx_size(n, edges):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return len(nx.max_weight_matching(graph, maxcardinality=True))


def _relabelled(rng, n, edges):
    """The same graph with persons relabelled and edges reordered."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) for a, b in edges]
    rng.shuffle(out)
    return tuple(out)


def test_maximum_matching_size_matches_networkx_on_large_random_graphs():
    rng = random.Random(50)
    for _ in range(30):
        n = rng.randint(50, 200)
        edges = set()
        for _ in range(rng.randint(n // 2, 3 * n)):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        edges = tuple(sorted(edges))
        assert maximum_matching_size(n, edges) == _networkx_size(n, edges)


def test_maximum_matching_size_petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = tuple(outer + spokes + inner)
    assert _networkx_size(10, edges) == 5
    rng = random.Random(10)
    for _ in range(50):
        assert maximum_matching_size(10, _relabelled(rng, 10, edges)) == 5


def test_maximum_matching_size_nested_blossoms():
    # three triangles joined in a triangle (a blossom of blossoms), with a
    # pendant edge at each triangle and one at the far side of the outer cycle
    triangles = [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(3) for i in range(3)]
    joins = [(0, 3), (4, 6), (7, 1)]
    pendants = [(2, 9), (5, 10), (8, 11), (9, 12)]
    edges = tuple(triangles + joins + pendants)
    n = 13
    expected = _networkx_size(n, edges)
    assert expected == max(map(len, enumerate_maximal_matchings(n, edges)))
    rng = random.Random(13)
    for _ in range(200):
        assert maximum_matching_size(n, _relabelled(rng, n, edges)) == expected


def test_maximum_matching_size_on_the_compiled_reduction_graph():
    # the 2,373-edge instance of a 3-variable, 5-clause formula
    formula = CnfFormula(3, ((-1, 2, -3), (-3, -1, 2), (1,), (-2, 1, 3), (-2, 3)), 4)
    dps = compile_formula(formula).dps
    assert dps.m == 2373
    rng = random.Random(2373)
    sparse = tuple(e for e in dps.edges if rng.random() < 0.6)
    for edges in (dps.edges, sparse, _relabelled(rng, dps.n, sparse)):
        assert maximum_matching_size(dps.n, edges) == _networkx_size(dps.n, edges)
