"""Independent oracles: deliberately naive, structured nothing like the library."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

from polysched.core import (
    DpsInstance,
    OpsInstance,
    PeriodicSchedule,
    UNBOUNDED,
    Violation,
    check_structure,
    ops_to_dps,
    recurrence_time,
    verify_dps,
)
from polysched.exact import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    OptimalHeatResult,
    SearchLimits,
    dps_feasible,
    heat_candidates,
)
from polysched.simplex import LpSolution


def dense_instance(rng) -> OpsInstance:
    """The bench's dense family: 6-9 persons, 10-16 edges, rational growth
    p/q with p <= 12, q <= 4."""
    n = rng.randint(6, 9)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = sorted(rng.sample(pool, rng.randint(10, min(len(pool), 16))))
    return OpsInstance(n, tuple(edges),
                       tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in edges))


def heat_by_desire_simulation(instance: OpsInstance, schedule: PeriodicSchedule):
    """Day-by-day desire growth over three periods of the unrolled schedule.

    Desire on edge e grows by g(e) per day and resets on meeting; the heat
    is the supremum of desire immediately before meetings over the infinite
    unrolling, which stabilizes within 3 periods for a periodic schedule
    (computed from the cyclic steady state: start each edge right after a
    meeting in the last full period).
    """
    t_len = schedule.period
    last_seen: dict[int, int] = {}
    for t in range(3 * t_len):
        for e in schedule.days[t % t_len]:
            last_seen[e] = t
    if len(last_seen) < instance.m:
        return UNBOUNDED
    worst = Fraction(0)
    desire = {e: Fraction(0) for e in range(instance.m)}
    # steady state: run enough warmup, then record peaks over one period
    warm = 3 * t_len
    for t in range(warm + t_len):
        today = schedule.days[t % t_len]
        for e in range(instance.m):
            desire[e] += instance.growth[e]
        for e in range(instance.m):
            if e in today:
                if t >= warm:
                    worst = max(worst, desire[e])
                desire[e] = Fraction(0)
        if t >= warm:
            worst = max(worst, max(desire.values()))
    return worst


def max_gap_by_unrolling(schedule: PeriodicSchedule, e: int):
    """Max run of missing days across three unrolled periods (interior gaps)."""
    t_len = schedule.period
    days = [t for t in range(3 * t_len) if e in schedule.days[t % t_len]]
    if not days:
        return UNBOUNDED
    return max(b - a for a, b in zip(days, days[1:]))


def per_edge_verify_dps(instance: DpsInstance, schedule: PeriodicSchedule):
    """`verify_dps` with each day scanned in sorted edge order for a shared
    person, and one scan of the days per edge, through `recurrence_time`."""
    bad = check_structure(instance.m, schedule)
    if bad is not None:
        return bad
    for t, day in enumerate(schedule.days):
        busy: set[int] = set()
        for e in sorted(day):
            a, b = instance.edges[e]
            if a in busy or b in busy:
                return Violation("not-a-matching", day=t, edge=e,
                                 detail=f"person conflict on edge {instance.edges[e]}")
            busy.update((a, b))
    for e in range(instance.m):
        r = recurrence_time(schedule, e)
        if r is UNBOUNDED:
            return Violation("never-scheduled", edge=e,
                             detail=f"edge {instance.edges[e]} never occurs")
        if r > instance.freq[e]:
            return Violation("gap-too-large", edge=e,
                             detail=f"edge {instance.edges[e]} recurs every {r} > f={instance.freq[e]}")
    return None


def per_edge_heat(instance: OpsInstance, schedule: PeriodicSchedule):
    """`heat` with one scan of the days per edge, through `recurrence_time`."""
    bad = check_structure(instance.m, schedule)
    if bad is not None:
        raise ValueError(f"schedule does not match instance: {bad}")
    rates = [recurrence_time(schedule, e) for e in range(instance.m)]
    if UNBOUNDED in rates:
        return UNBOUNDED
    return max((g * r for g, r in zip(instance.growth, rates)), default=Fraction(0))


def all_matchings(n: int, edges) -> list[frozenset[int]]:
    """Every matching (not only maximal ones), by subset filtering."""
    out = []
    m = len(edges)
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            used = set()
            good = True
            for e in combo:
                a, b = edges[e]
                if a in used or b in used:
                    good = False
                    break
                used.add(a)
                used.add(b)
            if good:
                out.append(frozenset(combo))
    return out


def maximal_matchings(n: int, edges) -> set[frozenset[int]]:
    """Filter all matchings down to the inclusion-maximal ones."""
    everything = all_matchings(n, edges)
    return {mm for mm in everything if not any(mm < other for other in everything)}


def naive_successors(state: tuple[int, ...], instance: DpsInstance):
    """(matching, next countdown tuple) per maximal matching covering every
    countdown-1 edge; next = f if scheduled else u - 1. Ordered by decreasing
    count of scheduled edges at countdown <= 2, ties by sorted edge list."""
    out = []
    for mm in maximal_matchings(instance.n, instance.edges):
        if all(e in mm for e in range(instance.m) if state[e] == 1):
            nxt = tuple(instance.freq[e] if e in mm else state[e] - 1
                        for e in range(instance.m))
            relief = len([e for e in mm if state[e] <= 2])
            out.append((-relief, sorted(mm), mm, nxt))
    out.sort(key=lambda t: (t[0], t[1]))
    return [(mm, nxt) for _, _, mm, nxt in out]


def reference_search(graph, limits: SearchLimits,
                     close_on_entry: bool = False) -> tuple[str, list | None, int]:
    """The depth-first cycle search with plain dead-state memoization:
    (status, the moves of a cycle when feasible, states entered).

    By default it looks at a successor only when it reaches it, as
    `exact._search` did before it closed cycles on entry. With
    `close_on_entry`, entering a state first looks for a successor on the
    path, as `exact._search` does. Either way it enters every successor it
    has not found dead: it skips no stuck or dominated state."""
    successors = graph.successors
    dead: set[int] = set()
    on_path: dict[int, int] = {graph.start: 0}
    path_moves: list = []

    def enter(state):
        succ = successors(state)
        if close_on_entry:
            for mm, nxt in succ:
                if nxt in on_path:
                    return succ, path_moves[on_path[nxt]:] + [mm]
        return succ, None

    succ, cycle = enter(graph.start)
    if cycle is not None:
        return FEASIBLE, cycle, 1
    stack = [iter(succ)]
    explored = 1
    while stack:
        if explored > limits.max_states:
            return INCONCLUSIVE, None, explored
        for mm, nxt in stack[-1]:
            if nxt in on_path:
                return FEASIBLE, path_moves[on_path[nxt]:] + [mm], explored
            if nxt not in dead:
                on_path[nxt] = len(path_moves) + 1
                path_moves.append(mm)
                explored += 1
                succ, cycle = enter(nxt)
                if cycle is not None:
                    return FEASIBLE, cycle, explored
                stack.append(iter(succ))
                break
        else:
            stack.pop()
            dead.add(on_path.popitem()[0])
            if path_moves:
                path_moves.pop()
    return INFEASIBLE, None, explored


def brute_force_dps_feasible(instance: DpsInstance, max_period: int) -> bool:
    """Search day sequences over ALL matchings for a valid cyclic schedule.

    A state is the per-edge countdown; any repeat of a state along the path
    closes a feasible cycle. Independent of the library's solver: no
    maximal-matching restriction, plain dict recursion.
    """
    matchings = all_matchings(instance.n, instance.edges)
    start = tuple(instance.freq)
    seen_dead: set[tuple[int, ...]] = set()

    def step(state, mm):
        nxt = []
        for e in range(instance.m):
            if e in mm:
                nxt.append(instance.freq[e])
            else:
                if state[e] == 1:
                    return None
                nxt.append(state[e] - 1)
        return tuple(nxt)

    def rec(state, path):
        if state in path:
            return True
        if state in seen_dead or len(path) > max_period + 1:
            return False
        path = path | {state}
        for mm in matchings:
            nxt = step(state, mm)
            if nxt is not None and rec(nxt, path):
                return True
        seen_dead.add(state)
        return False

    return rec(start, frozenset())


def count_satisfied(clauses, assignment) -> int:
    total = 0
    for clause in clauses:
        if any((assignment[abs(l) - 1] if l > 0 else not assignment[abs(l) - 1])
               for l in clause):
            total += 1
    return total


def first_reaching_assignment(formula) -> tuple[bool, ...]:
    """The first assignment, counting in binary from all-False, that
    satisfies at least k clauses of the formula."""
    return next(bits for bits in product((False, True), repeat=formula.num_vars)
                if formula.count_satisfied(bits) >= formula.k)


def small_formula_family(min_size: int = 50):
    """Deterministic pool of formulas with n' <= 3, m <= 4, every threshold k."""
    import random

    from polysched.satred import CnfFormula

    rng = random.Random(7)
    lits = [1, -1, 2, -2, 3, -3]
    formulas = []
    for _ in range(24):
        m = rng.randint(1, 4)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, 3)
            clause = tuple(dict.fromkeys(rng.sample(lits, size)))
            clauses.append(clause)
        for k in range(0, m + 1):
            formulas.append(CnfFormula(3, tuple(clauses), k))
    assert len(formulas) >= min_size
    return formulas


def run_under_optimize(script: str) -> subprocess.CompletedProcess:
    """Run a Python script with `-O`, which strips asserts, on this test run's path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)


def reference_solve_max(c, a_rows, b) -> LpSolution:
    """The dense rational-tableau simplex (Bland's rule) that `solve_max` must equal
    field for field, pivot count included."""
    m = len(a_rows)
    n = len(c)
    if any(len(row) != n for row in a_rows):
        raise ValueError("ragged constraint matrix")
    if any(Fraction(v) < 0 for v in b):
        raise ValueError("this solver requires b >= 0 (slack basis start)")

    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in a_rows[i]]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(Fraction(b[i]))
        tableau.append(row)
    basis = [n + i for i in range(m)]
    zrow = [Fraction(v) for v in c] + [Fraction(0)] * (m + 1)

    pivots = 0
    while True:
        enter = None
        for j in range(n + m):
            if zrow[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise ValueError("LP is unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        prow = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], prow)]
        f = zrow[enter]
        zrow = [v - f * p for v, p in zip(zrow, prow)]
        basis[leave] = enter
        pivots += 1

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][-1]
    objective = -zrow[-1]
    duals = [-zrow[n + i] for i in range(m)]
    return LpSolution(objective, x, duals, pivots)


def reference_optimal_heat(instance: OpsInstance, limits=None) -> OptimalHeatResult:
    """The plain binary search over every candidate heat, its top probe at
    (Delta+1)*g_max included, that `ops_optimal_heat` must equal in heat and
    predecessor."""
    cands = heat_candidates(instance)
    probes: dict[Fraction, str] = {}
    witnesses: dict[Fraction, PeriodicSchedule] = {}

    def probe(h: Fraction) -> str:
        if h not in probes:
            res = dps_feasible(ops_to_dps(instance, h), limits)
            probes[h] = res.status
            if res.status == FEASIBLE:
                witnesses[h] = res.schedule
        return probes[h]

    def inconclusive() -> OptimalHeatResult:
        lower = max((h for h, v in probes.items() if v == INFEASIBLE), default=None)
        upper = min((h for h, v in probes.items() if v == FEASIBLE), default=None)
        return OptimalHeatResult(INCONCLUSIVE, None, None, None, probes, bracket=(lower, upper))

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
    pred = cands[lo - 1] if lo > 0 else None
    if pred is not None and probes[pred] != INFEASIBLE:
        raise RuntimeError(f"binary search invariant: {pred} probed {probes[pred]}")
    schedule = witnesses[h_star]
    violation = verify_dps(ops_to_dps(instance, h_star), schedule)
    if violation is not None:
        raise RuntimeError(f"witness at heat {h_star} fails verification: {violation}")
    return OptimalHeatResult(FEASIBLE, h_star, schedule, pred, probes)
