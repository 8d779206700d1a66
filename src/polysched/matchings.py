"""Inclusion-maximal matching enumeration, shared by the exact solver and the
bounds, and the maximum matching size.

The enumerator walks edges in canonical index order with an extend-or-skip
branch per edge, so every matching is produced exactly once; a final
inclusion-maximality check discards non-maximal leaves. A skip branch dies
immediately when no later edge can still cover the skipped edge.
"""

from __future__ import annotations

from collections import deque

# most edges enumerate_maximal_matchings accepts by default: the count of
# maximal matchings, and with it the exact solver's moves and the poly-density
# LP's columns, grows exponentially in the edge count
MATCHING_CAP = 24


class MatchingCapExceeded(ValueError):
    """Raised when enumeration is requested beyond the edge cap."""


def check_matching_cap(m: int, cap: int = MATCHING_CAP) -> None:
    """Raise MatchingCapExceeded when m edges exceed the cap."""
    if m > cap:
        raise MatchingCapExceeded(f"{m} edges exceeds the enumeration cap {cap}")


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
    check_matching_cap(m, cap)
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
    """Size of a maximum matching, exact for general graphs at any edge count.

    Edmonds' blossom algorithm (Edmonds, "Paths, trees, and flowers", 1965):
    a greedy maximal matching, then one breadth-first search for an
    augmenting path from each exposed person. An odd cycle met in the search
    is contracted by pointing its persons' `base` at the cycle's lowest
    common ancestor in the search tree. A person with no augmenting path
    keeps none after later augmentations, so one search per person suffices.
    The search arrays are allocated once; each search lists the persons it
    reaches, contracts among them only, and resets only them.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    mate = [-1] * n
    size = 0
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        if mate[a] < 0 and mate[b] < 0:
            mate[a], mate[b] = b, a
            size += 1

    # the person before an odd person on its alternating path to root; set
    # on even persons too once a blossom holds them
    parent = [-1] * n
    base = list(range(n))
    even = [False] * n  # in the tree at an even distance from root

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, top: int, child: int, blossom: set[int]) -> None:
        # walk from v up to the blossom's base, pointing odd persons back
        # across the cycle so a path through the blossom exists
        while base[v] != top:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment(root: int, tree: list[int]) -> bool:
        # `tree` collects every person the search reaches
        even[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                    # w is even too: the edge closes an odd cycle, contract it
                    top = lca(v, w)
                    blossom: set[int] = set()
                    mark(v, top, w, blossom)
                    mark(w, top, v, blossom)
                    for u in tree:
                        if base[u] in blossom:
                            base[u] = top
                            if not even[u]:
                                even[u] = True
                                queue.append(u)
                elif parent[w] < 0:
                    parent[w] = v
                    tree.append(w)
                    if mate[w] < 0:  # exposed: flip the path back to root
                        while w >= 0:
                            v = parent[w]
                            nxt = mate[v]
                            mate[w], mate[v] = v, w
                            w = nxt
                        return True
                    even[mate[w]] = True
                    tree.append(mate[w])
                    queue.append(mate[w])
        return False

    for root in range(n):
        if mate[root] < 0 and adj[root]:
            tree = [root]
            if augment(root, tree):
                size += 1
            for u in tree:
                parent[u] = -1
                base[u] = u
                even[u] = False
    return size
