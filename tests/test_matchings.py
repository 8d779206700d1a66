import random

import pytest
from helpers import maximal_matchings as brute_maximal

from polysched.matchings import (
    MATCHING_CAP,
    MatchingCapExceeded,
    enumerate_maximal_matchings,
    maximum_matching_size,
)


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
