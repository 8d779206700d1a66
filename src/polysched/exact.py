"""Exact feasibility and exact optimal heat via the countdown configuration graph.

A state holds, per edge, the days remaining until that edge must be scheduled
(1..f(e)); a day picks an inclusion-maximal matching containing every edge
at countdown 1, resets those edges to f and decrements the rest. Reachable
cycles correspond exactly to feasible periodic schedules, so a depth-first
search with dead-state memoization decides feasibility and extracts the
cycle as the witness schedule. The search closes the cycle as soon as a
state it enters has a successor on the path.

A state is dead when no infinite walk leaves it. A state s whose countdowns
are all <= those of a dead state d is dead too: its must-set contains d's,
so every move open to s is open to d, and after the same move d's
countdowns are again all >= s's. Any infinite walk from s would replay from
d. So before it descends into a successor, the search asks `_DeadIndex`
whether some state it found dead is fieldwise >= it, and if so skips it as
dead. It skips a successor that has no successor of its own the same way,
without entering it: one with two due edges at one person, which no
matching covers (a must-set that is a matching extends to a maximal one).
A skipped state is truly dead, so the search enters the same live states in
the same order and finds the same cycle; it only enters fewer dead ones.
The index is the search's only memory of dead states, and it holds only
states the search entered (each covers itself), so the search's memory
grows with the states it enters and `max_states` bounds it.

`ConfigGraph` packs a state into one int: per edge, max(1, bit_length(f - 1))
low bits hold countdown - 1 below a guard bit that is clear in every stored
state. With all guards set (`lifted`), subtracting one per field never
borrows across fields, and the guards left clear in ``lifted - ones`` and
``lifted - 2*ones`` mark the countdown-1 edges (the must-set) and the
countdown <= 2 edges (relief). The guards of the edges at one person, one
mask per person of two or more edges, find two due edges at one person.

Before the full search, `dps_feasible` searches the star of each person: the
pinwheel instance of that person's sorted frequencies, one edge per day. An
infeasible star proves the instance infeasible. Cut any valid schedule down
to one person's edges: a day with no edge at that person can be given any of
them, because meeting early only resets a countdown, so the cut is a valid
star schedule. Skipped are stars with fewer than 3 edges (two tasks of
density <= 1 always fit), stars of load <= 5/6 (every such pinwheel instance
is schedulable; Kawamura, STOC 2024) and a star holding every edge of the
instance, which the full search decides itself. A skip can only lose a
pruning, never change a verdict. A star is searched in `PinwheelGraph`,
which keeps the countdowns of equal frequencies sorted: tasks of one
frequency are interchangeable, so states that differ by a permutation of
them are one state. A cycle among the plain states is one among the merged
states, and a merged cycle walked often enough returns to the same plain
state, so the verdict is the same. Dominance holds there as well: a merged
state is dead exactly when its sorted plain state is, and a sorted state
fieldwise >= another is so as a plain state.

`ops_optimal_heat` brackets the optimum before it searches. The round-robin
schedule of a Delta+1 edge colouring is a witness at a candidate heat, the
ceiling. The least candidate whose frequencies pass the load check, found by
bisection over integer heats times L (the common denominator of the growth
rates) without any search, is the floor. Only the candidates from the
floor's predecessor up to the ceiling are listed. The optimum most often
sits at or just above the floor, so the probes gallop up from it (Bentley
and Yao, Inf. Process. Lett. 1976) and bisect only once a probe is
feasible. The probes differ only in their frequencies, so one `_EdgeSet`
serves the floor bisection and every probe: each person's edge indices for
the load check, and the maximal matchings, enumerated once, by the first
probe that reaches the full search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .coloring import round_robin_schedule
from .core import (
    DpsInstance,
    OpsInstance,
    PeriodicSchedule,
    heat,
    scaled_growth,
    verify_dps,
)
from .matchings import MATCHING_CAP, enumerate_maximal_matchings

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchLimits:
    """The budget of each search of a `dps_feasible` call. A search's memory
    grows with the states it enters, so `max_states` bounds memory as well
    as time; `time_limit` is one deadline for all the call's searches."""

    max_states: int = 50_000_000
    time_limit: float | None = None  # seconds


@dataclass
class FeasibilityResult:
    status: str  # feasible | infeasible | inconclusive
    schedule: PeriodicSchedule | None
    explored: int


class _Fields:
    """The packing of countdown tuples over the frequencies `freq` (see the
    module docstring): per field its offset, low-bit mask and guard bit, and
    per person of two or more fields the guards of its fields (`ends` holds
    each field's persons)."""

    def __init__(self, freq, ends):
        self.offsets: list[int] = []
        self.low: list[int] = []
        self.guard: list[int] = []
        at: dict[int, int] = {}  # person -> the guards of its fields
        off = 0
        for f, persons in zip(freq, ends):
            w = max(1, (f - 1).bit_length())
            self.offsets.append(off)
            self.low.append(((1 << w) - 1) << off)
            self.guard.append(1 << (off + w))
            for v in persons:
                at[v] = at.get(v, 0) | self.guard[-1]
            off += w + 1
        self.guards = sum(self.guard)
        self.every = sum(self.low)
        self.ones = sum(1 << o for o in self.offsets)
        self.twos = 2 * self.ones
        self.start = self.pack(freq)
        self.shared = [mask for mask in at.values() if mask & (mask - 1)]

    def pack(self, state: tuple[int, ...]) -> int:
        return sum((u - 1) << o for u, o in zip(state, self.offsets))

    def stuck(self, packed: int) -> bool:
        """Whether `packed` has no successor: two due edges at one person."""
        must = self.guards & ~((packed | self.guards) - self.ones)
        for mask in self.shared:
            due = must & mask
            if due & (due - 1):
                return True
        return False


class ConfigGraph(_Fields):
    """The configuration graph of one instance over its maximal matchings.

    `matchings` must be every maximal matching of the instance, as
    `enumerate_maximal_matchings` gives: `stuck` relies on every matching
    extending to one of them. States are packed ints (see the module
    docstring); `start` is the all-f state and `pack` encodes a countdown
    tuple.
    """

    def __init__(self, instance: DpsInstance, matchings: list[frozenset[int]]):
        super().__init__(instance.freq, instance.edges)
        low, guard = self.low, self.guard
        # per matching, in sorted-edge-list order: its edges' guard bits, the
        # other edges' low bits, and its edges' fields reset to f - 1
        self.moves = [(frozenset(mm), sum(guard[e] for e in mm),
                       self.every - sum(low[e] for e in mm),
                       sum((instance.freq[e] - 1) << self.offsets[e] for e in mm))
                      for mm in sorted(matchings, key=sorted)]
        self._fit: dict[int, list] = {}  # must-set -> the moves covering it, in order

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
        fit = self._fit.get(must)
        if fit is None:
            fit = self._fit[must] = [move for move in self.moves if must & move[1] == must]
        if relief == must:
            # every move covers the must-set, so every relief count is equal
            return [(mm, (dec & keep) | reset) for mm, _, keep, reset in fit]
        out = [(-(relief & gm).bit_count(), i, mm, (dec & keep) | reset)
               for i, (mm, gm, keep, reset) in enumerate(fit)]
        out.sort()  # the index breaks ties in move order, so sets are never compared
        return [(mm, nxt) for _, _, mm, nxt in out]


class PinwheelGraph(_Fields):
    """The configuration graph of a pinwheel instance, one task per day, with
    the states that differ only by a permutation of equal frequencies merged.

    Fields are laid out as `ConfigGraph`'s over the ascending frequencies,
    all at one person, and each run (group) of equal frequencies keeps its
    countdowns ascending. Scheduling the task at position p shifts the
    higher fields of its group down one place and sets f - 1 in the group's
    top field, so a successor is sorted whenever its state is, with no
    re-sorting. A move is labelled by its position. With no frequency
    repeated, the successors are `ConfigGraph`'s over the star of singleton
    matchings, in its order.
    """

    def __init__(self, freqs):
        freqs = sorted(freqs)
        super().__init__(freqs, [(0,)] * len(freqs))
        low, guard, offsets = self.low, self.guard, self.offsets
        # per position p of a group [a, b): its guard bit, the low bits that
        # stay (outside the group and below p), the low bits that move down
        # one field (above p), the bits of one field and the top field set
        # to f - 1
        self.moves = []
        for p, f in enumerate(freqs):
            b = freqs.index(f) + freqs.count(f)
            self.moves.append((p, guard[p], self.every - sum(low[p:b]), sum(low[p + 1:b]),
                               guard[p].bit_length() - offsets[p], (f - 1) << offsets[b - 1]))
        self._urgent = {move[1]: [move] for move in self.moves}  # a lone due task -> its move
        self._ordered: dict[int, list] = {}  # relief -> the moves, relieving ones first

    def successors(self, packed: int) -> list[tuple[int, int]]:
        """As `ConfigGraph.successors`: the one move of the countdown-1 task,
        none when two tasks are due, else every move, those of the tasks at
        countdown <= 2 first, each part in position order."""
        lifted = packed | self.guards
        dec = lifted - self.ones
        must = self.guards & ~dec
        if must:
            moves = self._urgent.get(must, ())
        else:
            relief = self.guards & ~(lifted - self.twos)
            moves = self._ordered.get(relief)
            if moves is None:
                moves = self._ordered[relief] = sorted(self.moves, key=lambda m: not relief & m[1])
        return [(p, (dec & keep) | ((dec & above) >> width) | reset)
                for p, _, keep, above, width, reset in moves]


class _DeadIndex:
    """The dead states of one search, to ask whether any of them is fieldwise
    >= a given state (see the module docstring).

    The states are bucketed by must-set: d >= s fieldwise implies must(d) is
    a subset of must(s), so a query walks the submasks of must(s). A bucket
    packs its states side by side in one int, a slot of `width` bits each,
    holding d | guards below a sentinel bit. Every guard is set in
    d | guards and clear in s, so ``(d | guards) - s`` borrows across no
    field, nor out of the slot, and keeps a field's guard exactly when that
    field of d is >= s's. Filling the other bits of the slot and adding one
    then carries into the sentinel exactly when every guard was kept. One
    subtraction, or, addition and and test every slot of a bucket at once.
    """

    __slots__ = ("guards", "ones", "width", "fill", "sentinel", "buckets")

    def __init__(self, fields: _Fields):
        self.guards, self.ones = fields.guards, fields.ones
        self.width = fields.guards.bit_length() + 1
        self.sentinel = 1 << (self.width - 1)
        self.fill = (self.sentinel - 1) & ~fields.guards
        # must-set -> [slots, one per slot, fill bits, sentinels, next shift]
        self.buckets: dict[int, list[int]] = {}

    def add(self, state: int) -> None:
        lifted = state | self.guards
        must = self.guards & ~(lifted - self.ones)
        bucket = self.buckets.get(must)
        if bucket is None:
            self.buckets[must] = [lifted, 1, self.fill, self.sentinel, self.width]
            return
        shift = bucket[4]
        bucket[0] |= lifted << shift
        bucket[1] |= 1 << shift
        bucket[2] |= self.fill << shift
        bucket[3] |= self.sentinel << shift
        bucket[4] = shift + self.width

    def covers(self, state: int) -> bool:
        """Whether some added state is >= `state` in every field."""
        buckets = self.buckets
        must = self.guards & ~((state | self.guards) - self.ones)
        sub = must
        while True:
            bucket = buckets.get(sub)
            if bucket is not None:
                slots, rep, fill, sentinels, _ = bucket
                if (((slots - state * rep) | fill) + rep) & sentinels:
                    return True
            if not sub:
                return False
            sub = (sub - 1) & must


# Kawamura (STOC 2024): every pinwheel instance of density <= 5/6 is
# schedulable, so a star this light cannot prove anything
STAR_SKIP_LOAD = Fraction(5, 6)


class _EdgeSet:
    """The work that the `dps_feasible` probes of one edge set share: each
    person's edge indices, for the load check, and the maximal matchings,
    enumerated on first use, for the full search.

    The load check needs load <= 1 at every person: a person serves one edge
    per day, and edge e claims a 1/f(e) share of its endpoints' days in the
    long run.
    """

    def __init__(self, n: int, edges, matching_cap: int):
        self.n, self.edges, self.matching_cap = n, edges, matching_cap
        self.at: list[list[int]] = [[] for _ in range(n)]  # person -> its edges
        for e, (a, b) in enumerate(edges):
            self.at[a].append(e)
            self.at[b].append(e)
        self._matchings: list[frozenset[int]] | None = None

    def stars(self, freq) -> list[tuple[list[int], int, int]] | None:
        """Per person under the frequencies `freq`: its edges' frequencies
        and its load sum(1/f) as the integer sum(unit // f) over `unit`, the
        lcm of those frequencies; None when some load exceeds its unit."""
        out = []
        for star in self.at:
            freqs = [freq[e] for e in star]
            unit = math.lcm(*freqs)
            load = sum(unit // f for f in freqs)
            if load > unit:
                return None
            out.append((freqs, load, unit))
        return out

    def matchings(self) -> list[frozenset[int]]:
        """Every maximal matching; raises `MatchingCapExceeded` above the cap."""
        if self._matchings is None:
            self._matchings = enumerate_maximal_matchings(self.n, self.edges, cap=self.matching_cap)
        return self._matchings


def dps_feasible(
    instance: DpsInstance,
    limits: SearchLimits | None = None,
    matching_cap: int = MATCHING_CAP,
    *,
    _edge_set: _EdgeSet | None = None,
) -> FeasibilityResult:
    """Decide feasibility: the load check, the star checks (see the module
    docstring), then the depth-first cycle search from the all-f state.

    Returns feasible with the cycle as a standalone periodic schedule,
    infeasible when the load check fails (explored 0), a star search or the
    full search exhausts its reachable subgraph without a cycle, or
    inconclusive when a budget runs out (never conflated with infeasible).
    `explored` counts the states of the search that settled the verdict: the
    merged states of the star's `PinwheelGraph` when a star proves
    infeasibility (no more than the star's plain states, and as many when no
    frequency repeats), else the full search's, which a feasible or
    inconclusive star leaves unchanged. Each search gets `max_states`; all
    share one `time_limit` deadline. The maximal matchings are enumerated
    only when the full search runs. `_edge_set` is the `_EdgeSet` of
    `ops_optimal_heat`, shared by its probes, which share the edge set; it
    holds its own `matching_cap`. Without it the call builds its own.
    """
    limits = limits or SearchLimits()
    deadline = None if limits.time_limit is None else time.monotonic() + limits.time_limit
    if _edge_set is None:
        _edge_set = _EdgeSet(instance.n, instance.edges, matching_cap)
    stars = _edge_set.stars(instance.freq)
    if stars is None:
        return FeasibilityResult(INFEASIBLE, None, 0)
    skip_num, skip_den = STAR_SKIP_LOAD.numerator, STAR_SKIP_LOAD.denominator
    for freqs, load, unit in stars:
        if len(freqs) < 3 or load * skip_den <= skip_num * unit or len(freqs) == instance.m:
            continue
        status, _, explored = _search(PinwheelGraph(freqs), limits, deadline)
        if status == INFEASIBLE:
            return FeasibilityResult(INFEASIBLE, None, explored)
    graph = ConfigGraph(instance, _edge_set.matchings())
    status, cycle, explored = _search(graph, limits, deadline)
    schedule = None if cycle is None else PeriodicSchedule(len(cycle), tuple(cycle))
    return FeasibilityResult(status, schedule, explored)


def _search(
    graph: ConfigGraph | PinwheelGraph,
    limits: SearchLimits,
    deadline: float | None,
) -> tuple[str, list | None, int]:
    """Depth-first cycle search from `graph.start`: (status, the moves of a
    cycle when feasible, states entered).

    Entering a state lists its successors and closes the cycle at once if
    one of them is on the path; otherwise the search descends into the first
    successor not known dead, and a state with none left is dead and goes
    into `_DeadIndex`. A successor is known dead, and is not entered, when
    it has no successor itself (`stuck`: two due edges at one person) or
    when a state found dead is fieldwise >= it (`covered`; a state found
    dead covers itself). The index is the search's only memory of dead
    states, so memory grows with the states entered. The path is the same
    whenever the search returns to a state, so a successor off the path on
    entry never joins it later: the search enters no more states than one
    that looked only when it reached each successor, and finds the same
    cycle as one that skipped no state.
    """
    successors, stuck = graph.successors, graph.stuck
    max_states = limits.max_states
    index = _DeadIndex(graph)  # the states found dead; a skipped one adds nothing
    covered, bury = index.covers, index.add
    on_path: dict[int, int] = {}  # state -> index of the move leaving it; the last is the top
    path_moves: list = []
    stack: list = []  # per state on the path: an iterator over its successors
    state, explored = graph.start, 0
    while True:
        explored += 1
        if explored > max_states or (deadline is not None and time.monotonic() > deadline):
            return INCONCLUSIVE, None, explored
        on_path[state] = len(path_moves)
        succ = successors(state)
        for move, nxt in succ:
            if nxt in on_path:
                return FEASIBLE, path_moves[on_path[nxt]:] + [move], explored
        stack.append(iter(succ))
        while stack:
            for move, state in stack[-1]:
                if not stuck(state) and not covered(state):
                    break
            else:  # no live successor left: the top state is dead
                stack.pop()
                bury(on_path.popitem()[0])
                if path_moves:
                    path_moves.pop()
                continue
            path_moves.append(move)
            break
        else:
            return INFEASIBLE, None, explored


# the rungs that settle an end of the optimum's bracket
LOAD = "load"  # every candidate below the floor overloads some person
ROUND_ROBIN = "round-robin"  # the schedule of a Delta+1 edge colouring
SEARCH = "search"  # a `dps_feasible` probe


@dataclass
class OptimalHeatResult:
    status: str  # feasible | inconclusive
    heat: Fraction | None
    schedule: PeriodicSchedule | None
    predecessor: Fraction | None  # largest candidate below heat, certified infeasible
    probes: dict[Fraction, str] = field(default_factory=dict)
    bracket: tuple[Fraction | None, Fraction | None] | None = None  # when inconclusive
    # the rung that settled each end, (lower, upper): the predecessor and the
    # heat, or the bracket's ends; None for an end that is None
    rungs: tuple[str | None, str | None] = (None, None)


def _candidates(scaled: list[int], lo: int, hi: int) -> list[int]:
    """Every candidate heat times L in [lo, hi], ascending: the multiples of
    each g(e)*L there (see `heat_candidates`)."""
    cands: set[int] = set()
    for step in set(scaled):
        cands.update(range(-(-lo // step) * step, hi + 1, step))
    return sorted(cands)


def heat_candidates(instance: OpsInstance) -> list[Fraction]:
    """All values g(e)*q in [g_max, (Delta+1)*g_max]; the optimum is one of them.

    Over the common denominator L of the growth rates, the candidates of g are
    the multiples of the integer g*L between g_max*L and (Delta+1)*g_max*L.
    """
    denom, scaled = scaled_growth(instance)
    lo = int(instance.g_max * denom)  # g_max refuses an edgeless instance
    return [Fraction(c, denom) for c in _candidates(scaled, lo, (instance.max_degree + 1) * lo)]


def ops_optimal_heat(
    instance: OpsInstance,
    limits: SearchLimits | None = None,
    matching_cap: int = MATCHING_CAP,
) -> OptimalHeatResult:
    """Least candidate heat whose induced decision instance is feasible.

    Feasibility of ops_to_dps(I, h) is monotone nondecreasing in h, and so is
    the load check. The optimum is bracketed before any search:

    - ceiling: the round-robin schedule of a Delta+1 edge colouring has heat
      C*g_max with C <= Delta+1, a candidate, and is the witness there;
    - floor: the least candidate whose frequencies pass the load check, found
      with no search by bisecting the integers h*L between g_max*L and the
      ceiling, L the common denominator of the growth rates: the frequencies
      change only at candidates, so the least integer that passes is one.
      Every candidate below it overloads some person, and only the floor's
      predecessor among them is listed.

    Probes go through `dps_feasible`, upward from the floor, where the
    optimum most often lies: the candidates floor + 2^k - 1 for k = 0, 1,
    2, ... below the ceiling, while they are infeasible (galloping, Bentley
    and Yao 1976), then a binary search between the last infeasible one and
    the ceiling. A feasible probe lowers the ceiling to its witness's heat.
    The predecessor candidate of the optimum is certified
    infeasible: by a probe in the search, or else, below the floor, by one
    probe the load check settles with 0 states. `probes` holds every heat
    passed to `dps_feasible`, in call order. An inconclusive result brackets
    the optimum above the largest infeasible probe (or the floor's
    predecessor) and at or below the smallest feasible probe (or the
    round-robin heat). One `_EdgeSet` runs the floor's load checks and is
    handed to every probe, so the maximal matchings are enumerated once, by
    the first probe that reaches the full search, and an instance above
    `matching_cap` raises `MatchingCapExceeded` only when one does.
    """
    denom, scaled = scaled_growth(instance)
    low = int(instance.g_max * denom)  # g_max refuses an edgeless instance
    edge_set = _EdgeSet(instance.n, instance.edges, matching_cap)

    def freqs(units: int) -> tuple[int, ...]:
        """The frequencies of ops_to_dps(instance, units / L)."""
        return tuple(units // g for g in scaled)

    schedule = round_robin_schedule(instance)  # the witness at cand(hi) throughout
    ceiling = heat(instance, schedule)
    # the least integer that passes the load check, which passes at the
    # ceiling; the frequencies change only at candidates, so it is one
    least, passing = low, int(ceiling * denom)
    while least < passing:
        mid = (least + passing) // 2
        if edge_set.stars(freqs(mid)) is None:
            least = mid + 1
        else:
            passing = mid
    # only the candidates from the floor's predecessor up to the ceiling
    below = max((least - 1) // g * g for g in scaled)
    units = _candidates(scaled, max(below, low), int(ceiling * denom))
    index = {c: i for i, c in enumerate(units)}
    floor = index[least]

    def cand(i: int) -> Fraction | None:
        """The candidate at index i; None at -1, below the floor when the floor
        is the least candidate (else index 0 holds the floor's predecessor,
        and no index below it is asked for)."""
        return Fraction(units[i], denom) if i >= 0 else None

    probes: dict[Fraction, str] = {}

    def probe(i: int) -> FeasibilityResult:
        res = dps_feasible(DpsInstance(instance.n, instance.edges, freqs(units[i])), limits,
                           _edge_set=edge_set)
        probes[cand(i)] = res.status
        return res

    def heat_index(h: Fraction) -> int:
        i = index.get(h * denom)  # a Fraction of denominator 1 finds its int
        if i is None:
            raise RuntimeError(f"witness heat {h} is not a candidate heat")
        return i

    top = hi = heat_index(ceiling)

    def rungs(lower: int, upper: int) -> tuple[str | None, str]:
        """The rungs that settled the candidates at indices lower and upper."""
        return (None if lower < 0 else LOAD if lower < floor else SEARCH,
                ROUND_ROBIN if upper == top else SEARCH)

    # probes rise past infeasible ones and fall past feasible ones, so lo - 1
    # is the greatest infeasible probe (or the floor's predecessor) and upper
    # the least feasible one (or the round-robin heat)
    lo, upper, reach = floor, top, 1  # reach: 2^k while galloping, 0 after a feasible probe
    while lo < hi:
        mid = floor + reach - 1 if 0 < reach <= hi - floor else (lo + hi) // 2
        res = probe(mid)
        if res.status == INCONCLUSIVE:
            return OptimalHeatResult(INCONCLUSIVE, None, None, None, probes,
                                     bracket=(cand(lo - 1), cand(upper)),
                                     rungs=rungs(lo - 1, upper))
        if res.status == FEASIBLE:
            schedule = res.schedule
            upper, hi, reach = mid, heat_index(heat(instance, schedule)), 0
        else:
            lo, reach = mid + 1, 2 * reach
    if hi < lo:
        raise RuntimeError(f"witness heat {cand(hi)} is below a candidate certified infeasible")
    h_star, pred = cand(hi), cand(hi - 1)
    # lo only grows past a candidate probed infeasible; a predecessor never
    # probed lies below the floor
    if pred is not None and pred not in probes:
        probe(hi - 1)
    if pred is not None and probes[pred] != INFEASIBLE:
        raise RuntimeError(f"predecessor invariant: {pred} probed {probes[pred]}")
    violation = verify_dps(DpsInstance(instance.n, instance.edges, freqs(units[hi])), schedule)
    if violation is not None:
        raise RuntimeError(f"witness at heat {h_star} fails verification: {violation}")
    return OptimalHeatResult(FEASIBLE, h_star, schedule, pred, probes, rungs=rungs(hi - 1, hi))
