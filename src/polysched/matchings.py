"""Inclusion-maximal matching enumeration, shared by the exact solver and the
bounds, and the maximum matching size.

The enumerator walks edges in canonical index order with an extend-or-skip
branch per edge, so every matching is produced exactly once; a final
inclusion-maximality check discards non-maximal leaves. A skip branch dies
immediately when no later edge can still cover the skipped edge.
"""

from __future__ import annotations

# most edges enumerate_maximal_matchings accepts by default: the count of
# maximal matchings, and with it the exact solver's moves and the poly-density
# LP's columns, grows exponentially in the edge count
MATCHING_CAP = 24


class MatchingCapExceeded(ValueError):
    """Raised when enumeration is requested beyond the edge cap."""


def enumerate_maximal_matchings(
    n: int,
    edges: tuple[tuple[int, int], ...],
    cap: int = MATCHING_CAP,
) -> list[frozenset[int]]:
    """All inclusion-maximal matchings of the graph, each exactly once.

    Returned as frozensets of edge indices, in the deterministic order the
    extend-or-skip backtracking discovers them. Raises MatchingCapExceeded
    on more than `cap` edges.
    """
    m = len(edges)
    if m > cap:
        raise MatchingCapExceeded(f"{m} edges exceeds the enumeration cap {cap}")
    if m == 0:
        return [frozenset()]

    touches_later = [[] for _ in range(m)]  # later edges sharing an endpoint
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, m):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                touches_later[i].append(j)

    out: list[frozenset[int]] = []
    chosen: list[int] = []
    used: set[int] = set()

    def rec(i: int) -> None:
        if i == m:
            for j, (a, b) in enumerate(edges):
                if a not in used and b not in used:
                    return  # not maximal: j is still addable
            out.append(frozenset(chosen))
            return
        a, b = edges[i]
        blocked = a in used or b in used
        if not blocked:
            used.add(a)
            used.add(b)
            chosen.append(i)
            rec(i + 1)
            chosen.pop()
            used.discard(a)
            used.discard(b)
            # skipping i is only viable if some later edge can still block it
            if touches_later[i]:
                rec(i + 1)
        else:
            rec(i + 1)

    rec(0)
    return out


def maximum_matching_size(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """Size of a maximum matching, exact for general graphs at any edge count,
    by networkx's blossom-based max-cardinality matching."""
    # imported here: networkx is most of the import time of polysched, and
    # only the bounds need a maximum matching
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return len(nx.max_weight_matching(graph, maxcardinality=True))
