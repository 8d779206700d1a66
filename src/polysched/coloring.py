"""Proper edge coloring and the round-robin coloring scheduler.

color_edges implements the fan/path-inversion algorithm that colors any
simple graph with at most Delta+1 colors in polynomial time. Tie-breaking is
deterministic: edges in canonical order, lowest free color, lowest-index fan
extension, so fixtures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import OpsInstance, PeriodicSchedule, degrees

# most edges the exact backtracking colorer accepts; beyond it the exact
# answers are None and only the Delta+1 coloring bound is known
COLORING_CAP = 40


@dataclass(frozen=True)
class EdgeColoring:
    colors: tuple[int, ...]
    n_colors: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_colors)]
        for e, c in enumerate(self.colors):
            out[c].append(e)
        return out


def is_proper(edges, colors) -> bool:
    seen: dict[tuple[int, int], int] = {}
    for e, (a, b) in enumerate(edges):
        for v in (a, b):
            key = (v, colors[e])
            if key in seen:
                return False
            seen[key] = e
    return True


def color_edges(n: int, edges: tuple[tuple[int, int], ...]) -> EdgeColoring:
    """Proper edge coloring with at most Delta+1 colors; deterministic."""
    m = len(edges)
    if m == 0:
        return EdgeColoring((), 0)
    n_colors = max(degrees(n, edges)) + 1

    color: list[int | None] = [None] * m
    used: list[dict[int, int]] = [dict() for _ in range(n)]  # vertex -> color -> edge
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    for v in range(n):
        adj[v].sort()

    def is_free(v: int, c: int) -> bool:
        return c not in used[v]

    def free_color(v: int) -> int:
        for c in range(n_colors):
            if c not in used[v]:
                return c
        raise AssertionError("no free color; degree bound violated")

    def set_color(e: int, c: int | None) -> None:
        a, b = edges[e]
        old = color[e]
        if old is not None:
            del used[a][old]
            del used[b][old]
        color[e] = c
        if c is not None:
            if c in used[a] or c in used[b]:
                raise RuntimeError(f"color {c} already used at an end of edge {e}")
            used[a][c] = e
            used[b][c] = e

    for e0 in range(m):
        u, v = edges[e0]
        # maximal fan of u starting at v (lowest-index extension first)
        fan_v = [v]
        fan_e = [e0]
        in_fan = {v}
        while True:
            last = fan_v[-1]
            ext = None
            for w, ej in adj[u]:
                if w in in_fan or color[ej] is None:
                    continue
                if is_free(last, color[ej]):
                    ext = (w, ej)
                    break
            if ext is None:
                break
            fan_v.append(ext[0])
            fan_e.append(ext[1])
            in_fan.add(ext[0])

        c = free_color(u)
        d = free_color(fan_v[-1])
        if c != d and not is_free(u, d):
            # invert the maximal path from u of edges colored d, c alternately
            path = []
            x, want = u, d
            while want in used[x]:
                ej = used[x][want]
                path.append(ej)
                a2, b2 = edges[ej]
                x = b2 if a2 == x else a2
                want = c if want == d else d
            flipped = [(ej, c if color[ej] == d else d) for ej in path]
            for ej in path:
                set_color(ej, None)
            for ej, new_c in flipped:
                set_color(ej, new_c)
        # first fan prefix vertex where d is free (prefix must still be a fan)
        w_idx = None
        for i in range(len(fan_v)):
            if i > 0:
                ci = color[fan_e[i]]
                if ci is None or not is_free(fan_v[i - 1], ci):
                    break
            if is_free(fan_v[i], d) and is_free(u, d):
                w_idx = i
                break
        if w_idx is None:
            raise RuntimeError(f"no fan rotation target for edge {e0}")
        for j in range(w_idx):
            nxt = color[fan_e[j + 1]]
            set_color(fan_e[j + 1], None)
            set_color(fan_e[j], nxt)
        set_color(fan_e[w_idx], d)

    # compress to the colors actually used, preserving order
    used_colors = sorted({c for c in color if c is not None})
    remap = {c: i for i, c in enumerate(used_colors)}
    final = tuple(remap[c] for c in color)  # type: ignore[index]
    if not is_proper(edges, final):
        raise RuntimeError(f"edge coloring {final} is not proper")
    return EdgeColoring(final, len(used_colors))


def round_robin_schedule(instance: OpsInstance) -> PeriodicSchedule:
    """Period C schedule: day i runs color class i; heat <= C * g_max <= (Delta+1) * g_max."""
    coloring = color_edges(instance.n, instance.edges)
    if coloring.n_colors == 0:
        return PeriodicSchedule(1, (frozenset(),))
    days = tuple(frozenset(cls) for cls in coloring.classes())
    return PeriodicSchedule(coloring.n_colors, days)


def exact_edge_colorable(
    n: int,
    edges: tuple[tuple[int, int], ...],
    h: int,
) -> bool | None:
    """Whether a proper h-edge-coloring exists, by backtracking; None beyond
    COLORING_CAP edges.

    Symmetry breaking: edge i may only open color max_used+1; edges are
    tried in a most-constrained (high degree-sum) static order.
    """
    m = len(edges)
    if h < 0:
        raise ValueError("color count must be >= 0")
    if m == 0:
        return True
    if h == 0:
        return False
    if m > COLORING_CAP:
        return None
    deg = degrees(n, edges)
    if max(deg) > h:
        return False
    order = sorted(range(m), key=lambda e: (-(deg[edges[e][0]] + deg[edges[e][1]]), e))
    used_mask = [0] * n

    def rec(pos: int, max_used: int) -> bool:
        if pos == m:
            return True
        e = order[pos]
        a, b = edges[e]
        taken = used_mask[a] | used_mask[b]
        limit = min(h, max_used + 1)
        for c in range(limit):
            bit = 1 << c
            if taken & bit:
                continue
            used_mask[a] |= bit
            used_mask[b] |= bit
            if rec(pos + 1, max(max_used, c + 1)):
                return True
            used_mask[a] &= ~bit
            used_mask[b] &= ~bit
        return False

    return rec(0, 0)


def chromatic_index(n: int, edges: tuple[tuple[int, int], ...]) -> int | None:
    """Exact chromatic index (Delta or Delta+1); None beyond COLORING_CAP edges."""
    if not edges:
        return 0
    delta = max(degrees(n, edges))
    at_delta = exact_edge_colorable(n, edges, delta)
    if at_delta is None:
        return None
    return delta if at_delta else delta + 1


@dataclass(frozen=True)
class ColorabilityReport:
    """Answer to "does a heat-h schedule exist?" for unit growth rates.

    exists is None when only the Delta+1 heuristic bound is available
    (upper_bound_only set).
    """

    h: int
    exists: bool | None
    upper_bound_only: bool
    detail: str = ""


def unweighted_heat_feasible(instance: OpsInstance, h: int) -> ColorabilityReport:
    """A heat-h schedule exists iff the graph is h-edge-colorable (unit growths)."""
    if any(g != 1 for g in instance.growth):
        raise ValueError("requires all growth rates equal to 1")
    delta = instance.max_degree
    if h < delta:
        return ColorabilityReport(h, False, False, f"needs at least Delta={delta} colors")
    verdict = exact_edge_colorable(instance.n, instance.edges, h)
    if verdict is not None:
        return ColorabilityReport(h, verdict, False, "exact backtracking")
    coloring = color_edges(instance.n, instance.edges)
    if h >= coloring.n_colors:
        return ColorabilityReport(h, True, False, f"greedy {coloring.n_colors}-coloring suffices")
    return ColorabilityReport(h, None, True,
                              f"only the {coloring.n_colors}-color upper bound is known")


def coloring_from_schedule(
    instance: OpsInstance,
    schedule: PeriodicSchedule,
    h: int,
) -> EdgeColoring:
    """Extract a proper h-coloring from a heat-h schedule of a unit-growth instance.

    Every edge must occur within the first h days (it does when heat <= h);
    an edge's color is its first occurrence day. Some edges occur on several
    of these days; any one of them works.
    """
    if any(g != 1 for g in instance.growth):
        raise ValueError("requires all growth rates equal to 1")
    colors: list[int | None] = [None] * instance.m
    for t in range(min(h, schedule.period)):
        for e in schedule.days[t]:
            if colors[e] is None:
                colors[e] = t
    if any(c is None for c in colors):
        raise ValueError(f"some edge never occurs in the first {h} days; heat > {h}")
    final = tuple(colors)  # type: ignore[arg-type]
    if not is_proper(instance.edges, final):
        raise ValueError("schedule days are not matchings; extraction impossible")
    return EdgeColoring(final, h)


def trivial_vs_ratio_bound(instance: OpsInstance) -> Fraction:
    """The guaranteed ratio min{(Delta+1)/Delta * g_max/g_min, Delta+1}."""
    delta = instance.max_degree
    if delta == 0:
        return Fraction(1)
    a = Fraction(delta + 1, delta) * (instance.g_max / instance.g_min)
    b = Fraction(delta + 1)
    return min(a, b)
