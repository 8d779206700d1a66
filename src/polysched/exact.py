"""Exact feasibility and exact optimal heat via the countdown configuration graph.

A state holds, per edge, the days remaining until that edge must be scheduled
(1..f(e)); a day picks an inclusion-maximal matching containing every edge
at countdown 1, resets those edges to f and decrements the rest. Reachable
cycles correspond exactly to feasible periodic schedules, so a depth-first
search with dead-state memoization decides feasibility and extracts the
cycle as the witness schedule.

`ConfigGraph` packs a state into one int: per edge, max(1, bit_length(f - 1))
low bits hold countdown - 1 below a guard bit that is clear in every stored
state. With all guards set (`lifted`), subtracting one per field never
borrows across fields, and the guards left clear in ``lifted - ones`` and
``lifted - 2*ones`` mark the countdown-1 edges (the must-set) and the
countdown <= 2 edges (relief).

Before the full search, `dps_feasible` searches the star of each person: the
pinwheel instance of that person's sorted frequencies, one edge per day. An
infeasible star proves the instance infeasible. Cut any valid schedule down
to one person's edges: a day with no edge at that person can be given any of
them, because meeting early only resets a countdown, so the cut is a valid
star schedule. Skipped are stars with fewer than 3 edges (two tasks of
density <= 1 always fit), stars of load <= 5/6 (every such pinwheel instance
is schedulable; Kawamura, STOC 2024) and a star holding every edge of the
instance, which the full search decides itself. A skip can only lose a
pruning, never change a verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import DpsInstance, OpsInstance, PeriodicSchedule, ops_to_dps, verify_dps
from .generators import pinwheel_star
from .matchings import MATCHING_CAP, enumerate_maximal_matchings

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchLimits:
    max_states: int = 50_000_000
    time_limit: float | None = None  # seconds


@dataclass
class FeasibilityResult:
    status: str  # feasible | infeasible | inconclusive
    schedule: PeriodicSchedule | None
    explored: int


class ConfigGraph:
    """The configuration graph of one instance over a fixed list of matchings.

    States are packed ints (see the module docstring); `start` is the all-f
    state and `pack` encodes a countdown tuple.
    """

    def __init__(self, instance: DpsInstance, matchings: list[frozenset[int]]):
        self.offsets: list[int] = []
        low: list[int] = []  # per edge: the mask of its low bits
        guard: list[int] = []  # per edge: its guard bit
        off = 0
        for f in instance.freq:
            w = max(1, (f - 1).bit_length())
            self.offsets.append(off)
            low.append(((1 << w) - 1) << off)
            guard.append(1 << (off + w))
            off += w + 1
        self.guards = sum(guard)
        self.ones = sum(1 << o for o in self.offsets)
        self.twos = 2 * self.ones
        # per matching, in sorted-edge-list order: its edges' guard bits, the
        # other edges' low bits, and its edges' fields reset to f - 1
        self.moves = [(frozenset(mm), sum(guard[e] for e in mm),
                       sum(low[e] for e in range(instance.m) if e not in mm),
                       sum((instance.freq[e] - 1) << self.offsets[e] for e in mm))
                      for mm in sorted(matchings, key=sorted)]
        self.start = self.pack(instance.freq)

    def pack(self, state: tuple[int, ...]) -> int:
        return sum((u - 1) << o for u, o in zip(state, self.offsets))

    def successors(self, packed: int) -> list[tuple[frozenset[int], int]]:
        """One successor per matching containing every countdown-1 edge.

        Empty iff no matching contains the must-schedule set (deadlock).
        Ordered by decreasing urgency relief (edges at countdown <= 2
        covered), ties by the matching's sorted edge list.
        """
        lifted = packed | self.guards
        dec = lifted - self.ones
        must = self.guards & ~dec
        relief = self.guards & ~(lifted - self.twos)
        out = [(mm, (dec & keep) | reset, (relief & gm).bit_count())
               for mm, gm, keep, reset in self.moves if must & gm == must]
        out.sort(key=lambda t: -t[2])  # stable: ties keep the moves' order
        return [(mm, nxt) for mm, nxt, _ in out]


# Kawamura (STOC 2024): every pinwheel instance of density <= 5/6 is
# schedulable, so a star this light cannot prove anything
STAR_SKIP_LOAD = Fraction(5, 6)


def dps_feasible(
    instance: DpsInstance,
    limits: SearchLimits | None = None,
    matching_cap: int = MATCHING_CAP,
    *,
    _matchings: list[frozenset[int]] | None = None,
) -> FeasibilityResult:
    """Decide feasibility: the load check, the star checks (see the module
    docstring), then the depth-first cycle search from the all-f state.

    Returns feasible with the cycle as a standalone periodic schedule,
    infeasible when the load check fails (explored 0), a star search or the
    full search exhausts its reachable subgraph without a cycle, or
    inconclusive when a budget runs out (never conflated with infeasible).
    `explored` counts the states of the search that settled the verdict: the
    star's own count when a star proves infeasibility, else the full
    search's, which a feasible or inconclusive star leaves unchanged. Each
    search gets `max_states`; all share one `time_limit` deadline.
    `_matchings` lets `ops_optimal_heat` enumerate the maximal matchings
    once for all its probes, which share the edge set.
    """
    limits = limits or SearchLimits()
    deadline = None if limits.time_limit is None else time.monotonic() + limits.time_limit
    # necessary condition: a person can serve one edge per day, and edge e
    # claims a 1/f(e) share of its endpoints' days in the long run
    load = [Fraction(0)] * instance.n
    star: list[list[int]] = [[] for _ in range(instance.n)]
    for (a, b), f in zip(instance.edges, instance.freq):
        for v in (a, b):
            load[v] += Fraction(1, f)
            star[v].append(f)
    if any(v > 1 for v in load):
        return FeasibilityResult(INFEASIBLE, None, 0)
    for freqs, v_load in zip(star, load):
        if len(freqs) < 3 or v_load <= STAR_SKIP_LOAD or len(freqs) == instance.m:
            continue
        pinwheel = pinwheel_star(*sorted(freqs))
        result = _search(pinwheel, [frozenset({e}) for e in range(pinwheel.m)], limits, deadline)
        if result.status == INFEASIBLE:
            return result
    if _matchings is None:
        _matchings = enumerate_maximal_matchings(instance.n, instance.edges, cap=matching_cap)
    return _search(instance, _matchings, limits, deadline)


def _search(
    instance: DpsInstance,
    matchings: list[frozenset[int]],
    limits: SearchLimits,
    deadline: float | None,
) -> FeasibilityResult:
    """Depth-first cycle search over the configuration graph from the all-f state."""
    graph = ConfigGraph(instance, matchings)
    dead: set[int] = set()
    on_path: dict[int, int] = {graph.start: 0}
    path_states = [graph.start]
    path_moves: list[frozenset[int]] = []
    stack = [iter(graph.successors(graph.start))]
    explored = 1

    while stack:
        if explored > limits.max_states:
            return FeasibilityResult(INCONCLUSIVE, None, explored)
        if deadline is not None and time.monotonic() > deadline:
            return FeasibilityResult(INCONCLUSIVE, None, explored)
        try:
            mm, nxt = next(stack[-1])
        except StopIteration:
            stack.pop()
            top = path_states.pop()
            del on_path[top]
            if path_moves:
                path_moves.pop()
            dead.add(top)
            continue
        if nxt in on_path:
            d0 = on_path[nxt]
            days = path_moves[d0:] + [mm]
            schedule = PeriodicSchedule(len(days), tuple(days))
            return FeasibilityResult(FEASIBLE, schedule, explored)
        if nxt in dead:
            continue
        on_path[nxt] = len(path_states)
        path_states.append(nxt)
        path_moves.append(mm)
        stack.append(iter(graph.successors(nxt)))
        explored += 1

    return FeasibilityResult(INFEASIBLE, None, explored)


@dataclass
class OptimalHeatResult:
    status: str  # feasible | inconclusive
    heat: Fraction | None
    schedule: PeriodicSchedule | None
    predecessor: Fraction | None  # largest candidate below heat, certified infeasible
    probes: dict[Fraction, str] = field(default_factory=dict)
    bracket: tuple[Fraction | None, Fraction | None] | None = None  # when inconclusive


def heat_candidates(instance: OpsInstance) -> list[Fraction]:
    """All values g(e)*q in [g_max, (Delta+1)*g_max]; the optimum is one of them.

    Over the common denominator L of the growth rates, the candidates of g are
    the multiples of the integer g*L between g_max*L and (Delta+1)*g_max*L.
    """
    denom = math.lcm(*(g.denominator for g in instance.growth))
    lo = instance.g_max.numerator * (denom // instance.g_max.denominator)
    hi = (instance.max_degree + 1) * lo
    cands: set[int] = set()
    for g in set(instance.growth):
        step = g.numerator * (denom // g.denominator)
        cands.update(range(-(-lo // step) * step, hi + 1, step))
    return [Fraction(c, denom) for c in sorted(cands)]


def ops_optimal_heat(
    instance: OpsInstance,
    limits: SearchLimits | None = None,
    matching_cap: int = MATCHING_CAP,
) -> OptimalHeatResult:
    """Least candidate heat whose induced decision instance is feasible.

    Feasibility of ops_to_dps(I, h) is monotone nondecreasing in h, so a
    binary search over the sorted candidate set returns the optimum together
    with a witness schedule; the predecessor candidate is probed infeasible
    as the optimality certificate.
    """
    cands = heat_candidates(instance)
    matchings = enumerate_maximal_matchings(instance.n, instance.edges, cap=matching_cap)
    probes: dict[Fraction, str] = {}
    witnesses: dict[Fraction, PeriodicSchedule] = {}

    def probe(h: Fraction) -> str:
        if h not in probes:
            res = dps_feasible(ops_to_dps(instance, h), limits, _matchings=matchings)
            probes[h] = res.status
            if res.status == FEASIBLE:
                witnesses[h] = res.schedule
        return probes[h]

    def inconclusive() -> OptimalHeatResult:
        # the optimum lies above every infeasible probe and at or below every
        # feasible one
        lower = max((h for h, v in probes.items() if v == INFEASIBLE), default=None)
        upper = min((h for h, v in probes.items() if v == FEASIBLE), default=None)
        return OptimalHeatResult(INCONCLUSIVE, None, None, None, probes,
                                 bracket=(lower, upper))

    lo, hi = 0, len(cands) - 1
    top = probe(cands[hi])
    if top == INCONCLUSIVE:
        return inconclusive()
    if top != FEASIBLE:
        raise RuntimeError(f"the (Delta+1)*g_max candidate probed {top}")
    while lo < hi:
        mid = (lo + hi) // 2
        verdict = probe(cands[mid])
        if verdict == INCONCLUSIVE:
            return inconclusive()
        if verdict == FEASIBLE:
            hi = mid
        else:
            lo = mid + 1
    h_star = cands[lo]
    # lo only grows past a candidate probed infeasible, so the predecessor
    # was probed in the loop
    pred = cands[lo - 1] if lo > 0 else None
    if pred is not None and probes[pred] != INFEASIBLE:
        raise RuntimeError(f"binary search invariant: {pred} probed {probes[pred]}")
    schedule = witnesses[h_star]
    violation = verify_dps(ops_to_dps(instance, h_star), schedule)
    if violation is not None:
        raise RuntimeError(f"witness at heat {h_star} fails verification: {violation}")
    return OptimalHeatResult(FEASIBLE, h_star, schedule, pred, probes)
