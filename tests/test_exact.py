import hashlib
import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import count, takewhile
from itertools import product as iproduct
from pathlib import Path

import pytest
from helpers import (
    brute_force_dps_feasible,
    naive_successors,
    reference_optimal_heat,
    reference_search,
)

from polysched import exact
from polysched.coloring import round_robin_schedule
from polysched.core import DpsInstance, OpsInstance, heat, ops_to_dps, verify_dps
from polysched.exact import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    LOAD,
    ROUND_ROBIN,
    SEARCH,
    ConfigGraph,
    PinwheelGraph,
    SearchLimits,
    dps_feasible,
    heat_candidates,
    ops_optimal_heat,
)
from polysched.generators import (
    figure1,
    pentagon,
    pinwheel_star,
    triangle_f2,
)
from polysched.matchings import MATCHING_CAP, MatchingCapExceeded, enumerate_maximal_matchings
from polysched.report import seeded_suite

# `TestOptimalHeat.test_results_are_pinned`: every `ops_optimal_heat` result
RESULTS_DIGEST = "566820835d5dd235ca3c322ff2d1af670c8b82df2c0ee2338bbb224565d2f96a"
# `TestOptimalHeat.test_heats_are_pinned`: status, heat, predecessor and rungs
HEATS_DIGEST = "453fe7d653e8de0a0bdfd4eb7564bbfeaa6b3166f1371a0394c70f7e3d1891a3"


def random_dps(rng, max_n=5, max_m=5, max_f=4):
    n = rng.randint(2, max_n)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(1, min(len(pool), max_m))
    edges = tuple(sorted(rng.sample(pool, m)))
    freq = tuple(rng.randint(1, max_f) for _ in edges)
    return DpsInstance(n, edges, freq)


def overloaded(inst):
    """Some person's edges claim more than all of its days: sum of 1/f > 1."""
    return any(sum(Fraction(1, f) for (a, b), f in zip(inst.edges, inst.freq) if v in (a, b)) > 1
               for v in range(inst.n))


def bench_corpus():
    """The 230 instances of the bench's solve-seeded corpus, unrelabelled."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    rng = random.Random(workloads.CORPUS_SEED["ops"])
    draws = [workloads.family_ops(rng) for _ in range(workloads.SIZES["solve-seeded"]["full"])]
    return [(f"corpus-{i}", OpsInstance(n, tuple(edges), tuple(growth)))
            for i, (n, edges, growth) in enumerate(draws)]


def config_graph(inst):
    # reversed: the graph must order its moves itself
    return ConfigGraph(inst, enumerate_maximal_matchings(inst.n, inst.edges)[::-1])


def all_states(inst):
    return list(iproduct(*(range(1, f + 1) for f in inst.freq)))


def star_graph(freqs):
    """The matching graph of pinwheel_star(*freqs): one singleton matching per task."""
    star = pinwheel_star(*freqs)
    return ConfigGraph(star, [frozenset({e}) for e in range(star.m)])


def sorted_groups(state, freqs):
    """`state` with the countdowns of each run of equal frequencies in ascending order."""
    out = list(state)
    for f in set(freqs):
        at = [i for i, g in enumerate(freqs) if g == f]
        for i, u in zip(at, sorted(state[i] for i in at)):
            out[i] = u
    return tuple(out)


def dead_states(inst):
    """The states of the explicit configuration graph that no infinite walk
    leaves: remove states whose successors are all removed, until none is."""
    succ = {s: [t for _, t in naive_successors(s, inst)] for s in all_states(inst)}
    alive = set(succ)
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if not any(t in alive for t in succ[s]):
                alive.discard(s)
                changed = True
    return set(succ) - alive


class TestSuccessors:
    def test_triangle_all_urgent_deadlock(self):
        graph = config_graph(triangle_f2())
        assert graph.successors(graph.pack((1, 1, 1))) == []

    def test_single_edge_resets(self):
        graph = config_graph(DpsInstance(2, ((0, 1),), (3,)))
        assert graph.successors(graph.pack((3,))) == [(frozenset({0}), graph.pack((3,)))]

    def test_path_with_urgent_edge(self):
        graph = config_graph(DpsInstance(3, ((0, 1), (1, 2)), (1, 2)))
        succ = graph.successors(graph.pack((1, 2)))
        # the only maximal matchings are {0} and {1}; edge 0 is forced
        assert [mm for mm, _ in succ] == [frozenset({0})]
        assert succ[0][1] == graph.pack((1, 1))

    def test_urgency_relief_ordering(self):
        graph = config_graph(DpsInstance(4, ((0, 1), (2, 3)), (3, 3)))
        succ = graph.successors(graph.pack((2, 3)))
        # the lone maximal matching covers both
        assert succ[0][0] == frozenset({0, 1})

    def test_matches_naive_successors_on_every_state(self):
        # f = 1 edges and f at the field-width boundaries 2, 3, 4, 5, 8, 9
        instances = [
            DpsInstance(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (1, 2, 8, 9)),
            DpsInstance(4, ((0, 1), (0, 2), (1, 2), (2, 3)), (3, 4, 5, 2)),
            DpsInstance(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), (2, 3, 4, 5, 8)),
            DpsInstance(5, ((0, 1), (0, 2), (0, 3), (3, 4)), (9, 1, 8, 3)),
            DpsInstance(5, ((0, 1), (2, 3), (3, 4)), (1, 4, 3)),
        ]
        rng = random.Random(79)
        instances += [random_dps(rng, max_n=5, max_m=4, max_f=9) for _ in range(15)]
        for inst in instances:
            graph = config_graph(inst)
            assert graph.start == graph.pack(inst.freq)
            for s in all_states(inst):
                expected = [(mm, graph.pack(nxt)) for mm, nxt in naive_successors(s, inst)]
                assert graph.successors(graph.pack(s)) == expected, (inst, s)
                assert graph.stuck(graph.pack(s)) == (expected == []), (inst, s)


class TestFeasibility:
    def test_triangle_infeasible(self):
        assert dps_feasible(triangle_f2()).status == INFEASIBLE

    def test_pinwheel_stars(self):
        for m in range(4, 13):
            assert dps_feasible(pinwheel_star(2, 3, m)).status == INFEASIBLE
        assert dps_feasible(pinwheel_star(2, 4, 4)).status == FEASIBLE

    def test_pentagon_feasible_multiclass_cd(self):
        pent = pentagon()
        result = dps_feasible(pent)
        assert result.status == FEASIBLE
        assert verify_dps(pent, result.schedule) is None
        cd = pent.edge_index()[(2, 3)]
        horizon = math.lcm(result.schedule.period, 3)
        days = [t for t in range(horizon)
                if cd in result.schedule.days[t % result.schedule.period]]
        assert len({d % 3 for d in days}) >= 2

    def test_load_check_is_the_fraction_rule(self):
        # infeasible with no state entered exactly when some person's 1/f
        # shares sum past 1; a search always enters its start state
        rng = random.Random(61)
        seen = Counter()
        for _ in range(400):
            inst = random_dps(rng, max_n=7, max_m=6, max_f=4)
            result = dps_feasible(inst, SearchLimits(max_states=50))
            expected = overloaded(inst)
            assert (result.status == INFEASIBLE and result.explored == 0) == expected, inst
            seen[expected] += 1
            seen["edgeless person"] += len({v for edge in inst.edges for v in edge}) < inst.n
            seen["f = 1"] += 1 in inst.freq
        assert min(seen.values()) >= 50, seen

    def test_witness_always_verifies(self):
        rng = random.Random(53)
        for _ in range(150):
            inst = random_dps(rng)
            result = dps_feasible(inst)
            if result.status == FEASIBLE:
                assert verify_dps(inst, result.schedule) is None

    def test_infeasible_cross_checked_by_brute_force(self):
        # brute force searches sequences over ALL matchings, so this also
        # confirms that restricting to maximal matchings loses nothing
        rng = random.Random(59)
        checked_infeasible = 0
        for _ in range(80):
            inst = random_dps(rng, max_n=4, max_m=4, max_f=3)
            lcm = math.lcm(*inst.freq)
            mine = dps_feasible(inst).status == FEASIBLE
            brute = brute_force_dps_feasible(inst, max_period=math.prod(inst.freq) + 1)
            assert mine == brute, (inst, lcm)
            if not mine:
                checked_infeasible += 1
        assert checked_infeasible >= 5

    def test_state_count_within_product_bound(self):
        rng = random.Random(61)
        for _ in range(50):
            inst = random_dps(rng)
            result = dps_feasible(inst)
            assert result.explored <= math.prod(inst.freq) + 1

    def test_budget_inconclusive(self):
        inst = ops_to_dps(figure1(), 160)
        limited = dps_feasible(inst, SearchLimits(max_states=3))
        assert limited.status == INCONCLUSIVE

    def test_dominance_soundness_on_exhaustive_state_space(self):
        # alive = greatest fixpoint of "has a successor that is alive";
        # alive must be upward closed, dead downward closed, componentwise
        rng = random.Random(73)
        for _ in range(25):
            inst = random_dps(rng, max_n=4, max_m=3, max_f=3)
            graph = config_graph(inst)
            packed = {s: graph.pack(s) for s in all_states(inst)}
            alive = set(packed.values())
            changed = True
            while changed:
                changed = False
                for p in list(alive):
                    if not any(nxt in alive for _, nxt in graph.successors(p)):
                        alive.discard(p)
                        changed = True
            for s in packed:
                for t in packed:
                    if all(a >= b for a, b in zip(t, s)):
                        if packed[s] in alive:
                            assert packed[t] in alive  # more slack stays alive
                        if packed[t] not in alive:
                            assert packed[s] not in alive
            # the solver's verdict matches reachability into the alive set
            verdict = dps_feasible(inst).status
            assert (verdict == FEASIBLE) == (packed[tuple(inst.freq)] in alive)

    def test_start_state_is_all_f(self):
        graph = config_graph(triangle_f2())
        assert graph.start == graph.pack((2, 2, 2))

    def test_search_trace_is_pinned(self):
        fig = dps_feasible(ops_to_dps(figure1(), 160))
        assert (fig.status, fig.explored, fig.schedule.period) == (FEASIBLE, 30, 8)
        assert [sorted(d) for d in fig.schedule.days] == [[1, 6, 7, 9], [0, 2, 4], [1, 6, 7, 9],
            [1, 5, 8, 9], [1, 6, 7, 9], [0, 2, 4], [1, 6, 7, 9], [1, 3, 5]]
        pent = dps_feasible(pentagon())
        assert (pent.status, pent.explored, pent.schedule.period) == (FEASIBLE, 5, 3)
        assert [sorted(d) for d in pent.schedule.days] == [[2, 4], [0, 2], [1, 3]]
        # passes the load check, so the search itself proves infeasibility
        star = dps_feasible(pinwheel_star(2, 3, 12))
        assert (star.status, star.explored) == (INFEASIBLE, 19)

    def test_closing_on_entry_enters_no_more_states(self, monkeypatch):
        # every search of every probe of the seed 1-5 suites, star searches
        # included, against the search that looks at a successor only when
        # it reaches it, and against the one that closes cycles on entry but
        # skips no stuck or dominated state: a skipped state is truly dead,
        # so the verdict and the cycle are the same
        search = exact._search
        searched, probed = [], []

        def all_three(graph, limits, deadline):
            found = search(graph, limits, deadline)
            searched.append((type(graph), found, reference_search(graph, limits),
                             reference_search(graph, limits, close_on_entry=True)))
            return found

        def recording(instance, *args, **kwargs):
            result = dps_feasible(instance, *args, **kwargs)
            probed.append((instance, result))
            return result

        monkeypatch.setattr(exact, "_search", all_three)
        monkeypatch.setattr(exact, "dps_feasible", recording)
        for seed in range(1, 6):
            for _, inst in seeded_suite(seed, 200):
                ops_optimal_heat(inst)
        entered = {FEASIBLE: [0, 0, 0], INFEASIBLE: [0, 0, 0]}
        for kind, found, reached, on_entry in searched:
            (status, cycle, explored), (ref_status, _, ref_explored) = found, reached
            assert status == ref_status
            assert (status, cycle) == on_entry[:2]
            assert explored <= on_entry[2] <= ref_explored
            for i, n in enumerate((explored, on_entry[2], ref_explored)):
                entered[status][i] += n
        assert {kind for kind, *_ in searched} == {ConfigGraph, PinwheelGraph}
        # closing on entry enters no more states than looking on reach, and
        # skipping stuck and dominated states enters fewer still
        assert entered[FEASIBLE][0] < entered[FEASIBLE][1] < entered[FEASIBLE][2]
        assert 0 < entered[INFEASIBLE][0] < entered[INFEASIBLE][1] == entered[INFEASIBLE][2]
        for instance, result in probed:
            if result.status == FEASIBLE:
                assert verify_dps(instance, result.schedule) is None, instance

    def test_every_state_against_the_explicit_graph(self, monkeypatch):
        # a search from each state of tiny instances, and from each sorted
        # state of tiny pinwheel instances: infeasible exactly when the state
        # is dead in the explicit graph, and every state it buries is dead
        buried = []

        class Recording(exact._DeadIndex):
            def add(self, state):
                buried.append(state)
                super().add(state)

        monkeypatch.setattr(exact, "_DeadIndex", Recording)
        rng = random.Random(107)
        cases = []
        for _ in range(150):
            inst = random_dps(rng, max_n=5, max_m=4, max_f=4)
            graph = config_graph(inst)
            cases.append((graph, [graph.pack(s) for s in all_states(inst)],
                          {graph.pack(s) for s in dead_states(inst)}))
        for _ in range(150):
            freqs = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 4))))
            star, plain = pinwheel_star(*freqs), star_graph(freqs)
            states = [s for s in all_states(star) if sorted_groups(s, freqs) == s]
            cases.append((PinwheelGraph(freqs), [plain.pack(s) for s in states],
                          {plain.pack(s) for s in dead_states(star)}))
        counts = {ConfigGraph: [0, 0, 0], PinwheelGraph: [0, 0, 0]}  # feasible, infeasible, buried
        for graph, states, dead in cases:
            for state in states:
                graph.start = state
                buried.clear()
                status, _, _ = exact._search(graph, SearchLimits(), None)
                assert (status == INFEASIBLE) == (state in dead), (graph.moves, state)
                assert set(buried) <= dead, (graph.moves, state)
                count = counts[type(graph)]
                count[status == INFEASIBLE] += 1
                count[2] += len(buried)
        for count in counts.values():
            assert min(count[:2]) >= 300 and count[2] >= 300, counts

    def test_memory_grows_with_the_states_entered(self):
        # stuck successors of a unit-growth instance at 24 edges are never
        # stored, so a 300-state budget holds the search to a small trace
        pairs = [(a, b) for a in range(12) for b in range(a + 1, 12)]
        edges = tuple(sorted(random.Random(2).sample(pairs, 24)))
        inst = DpsInstance(12, edges, (5,) * 24)
        tracemalloc.start()
        try:
            result = dps_feasible(inst, SearchLimits(max_states=300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.status, result.explored) == (INCONCLUSIVE, 301)
        assert peak < 2 * 2**20, peak


def loaded_star_instance(rng):
    """A star of 3-4 edges with load in (5/6, 1], plus 1-2 edges off the
    centre; persons relabelled and edges shuffled. Returns the instance and
    the star's frequencies."""
    while True:
        freqs = [rng.randint(2, 7) for _ in range(rng.randint(3, 4))]
        if Fraction(5, 6) < sum(Fraction(1, f) for f in freqs) <= 1:
            break
    k = len(freqs)
    n = k + 1 + rng.randint(0, 2)
    pool = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
    extra = rng.sample(pool, rng.randint(1, 2))
    rows = [((0, i + 1), f) for i, f in enumerate(freqs)]
    rows += [(e, rng.randint(2, 4)) for e in extra]
    rng.shuffle(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = tuple((perm[a], perm[b]) for (a, b), _ in rows)
    return DpsInstance(n, edges, tuple(f for _, f in rows)), freqs


class TestStarCheck:
    # pinwheel_star(2, 3, 12) with a leaf joined to a new person 4: with a
    # large f alone (the full search alone takes 19 states too), and to a
    # path 4-5 (the full search alone takes 34 states)
    SETTLED = [
        DpsInstance(5, ((0, 1), (0, 2), (0, 3), (1, 4)), (2, 3, 12, 50)),
        DpsInstance(6, ((0, 1), (0, 2), (0, 3), (1, 4), (4, 5)), (2, 3, 12, 7, 2)),
    ]

    def test_infeasible_star_settles_the_verdict(self):
        star = dps_feasible(pinwheel_star(2, 3, 12))
        assert (star.status, star.explored) == (INFEASIBLE, 19)
        for inst in self.SETTLED:
            result = dps_feasible(inst)
            assert (result.status, result.explored) == (INFEASIBLE, 19), inst

    def test_matches_brute_force_on_loaded_stars(self):
        rng = random.Random(89)
        verdicts = {FEASIBLE: 0, INFEASIBLE: 0}
        star_settled = 0
        for _ in range(200):
            inst, freqs = loaded_star_instance(rng)
            mine = dps_feasible(inst).status
            brute = brute_force_dps_feasible(inst, max_period=math.prod(inst.freq) + 1)
            assert (mine == FEASIBLE) == brute, inst
            verdicts[mine] += 1
            loads = [sum(Fraction(1, f) for e, f in zip(inst.edges, inst.freq) if v in e)
                     for v in range(inst.n)]
            if max(loads) <= 1 and dps_feasible(pinwheel_star(*sorted(freqs))).status == INFEASIBLE:
                star_settled += 1
        assert min(verdicts.values()) >= 50
        assert star_settled >= 20

    def test_star_out_of_budget_is_never_infeasible(self):
        for inst in self.SETTLED:
            for max_states in range(1, 19):
                result = dps_feasible(inst, SearchLimits(max_states=max_states))
                assert result.status == INCONCLUSIVE, (inst, max_states)
            assert dps_feasible(inst, SearchLimits(max_states=19)).status == INFEASIBLE


class TestPinwheelGraph:
    def test_successors_are_the_star_graphs_with_groups_sorted(self):
        # every sorted state; repeated frequencies, f = 1 and the field-width
        # boundaries 2, 3, 4, 5, 8, 9 included
        tuples = [(2, 2, 3), (1, 2, 2), (3, 3, 3), (2, 4, 4, 4), (3, 3, 5, 5), (2, 3, 5),
                  (4, 4), (2, 8, 9, 9), (1, 1), (5, 8, 8)]
        rng = random.Random(97)
        tuples += [tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 5))))
                   for _ in range(20)]
        for freqs in tuples:
            graph, star = PinwheelGraph(freqs), star_graph(freqs)
            assert graph.start == star.start
            for s in all_states(pinwheel_star(*freqs)):
                if sorted_groups(s, freqs) != s:
                    continue
                expected = [(p, star.pack(sorted_groups(t, freqs)))
                            for (p,), t in naive_successors(s, pinwheel_star(*freqs))]
                assert graph.successors(star.pack(s)) == expected, (freqs, s)
                assert graph.stuck(star.pack(s)) == (expected == []), (freqs, s)

    def test_search_matches_the_star_graph(self, monkeypatch):
        # every star that the probes of suites 1-5 search, and 400 random
        # tuples of 2-7 tasks with a repeated frequency
        reached = set()

        class Recording(PinwheelGraph):
            def __init__(self, freqs):
                reached.add(tuple(sorted(freqs)))
                super().__init__(freqs)

        monkeypatch.setattr(exact, "PinwheelGraph", Recording)
        for seed in range(1, 6):
            for _, inst in seeded_suite(seed, 200):
                ops_optimal_heat(inst)
        monkeypatch.undo()
        assert len(reached) >= 50
        assert sum(len(set(freqs)) < len(freqs) for freqs in reached) >= 20
        rng = random.Random(101)
        drawn = []
        for _ in range(400):
            freqs = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
            drawn.append(tuple(sorted(freqs + [rng.choice(freqs)])))
        limits = SearchLimits()
        verdicts = {FEASIBLE: 0, INFEASIBLE: 0}
        for freqs in sorted(reached) + drawn:
            status, _, explored = exact._search(PinwheelGraph(freqs), limits, None)
            plain_status, _, plain_explored = exact._search(star_graph(freqs), limits, None)
            assert status == plain_status, freqs
            if len(set(freqs)) == len(freqs):
                assert explored == plain_explored, freqs
            elif status == INFEASIBLE:
                # both enter every reachable state, and merging only merges
                assert explored <= plain_explored, freqs
            verdicts[status] += 1
        assert min(verdicts.values()) >= 100
        status, _, explored = exact._search(PinwheelGraph((12, 3, 2)), limits, None)
        assert (status, explored) == (INFEASIBLE, 19)


class TestDeadIndex:
    # layouts with width-1 fields (f = 1, 2) and f = 2^k and 2^k + 1 at the
    # field-width boundaries; most pinwheel ones repeat frequencies
    CONFIG = [
        DpsInstance(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (1, 2, 8, 9)),
        DpsInstance(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)), (3, 4, 5, 16, 17)),
        DpsInstance(6, ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4)), (2, 2, 2, 1, 33)),
        DpsInstance(2, ((0, 1),), (1,)),
    ]
    PINWHEEL = [(2, 3, 12), (1, 2, 2, 4, 5), (8, 8, 9, 9, 9), (2, 4, 16, 17, 32, 33), (1,)]

    @staticmethod
    def draw(rng, freq):
        """A countdown tuple whose fields sit at 1 or at f about half the time."""
        return tuple(rng.choice((1, f, rng.randint(1, f))) for f in freq)

    def test_covers_is_the_fieldwise_comparison(self):
        rng = random.Random(103)
        layouts = [(config_graph(inst), inst.freq) for inst in self.CONFIG]
        layouts += [(PinwheelGraph(freqs), tuple(sorted(freqs))) for freqs in self.PINWHEEL]
        found = {True: 0, False: 0}
        for graph, freq in layouts:
            for _ in range(30):
                index = exact._DeadIndex(graph)
                dead = [self.draw(rng, freq) for _ in range(rng.randint(0, 60))]
                for d in dead:
                    index.add(graph.pack(d))
                queries = [self.draw(rng, freq) for _ in range(40)]
                # at and just below dead states, where the answer turns
                queries += [tuple(max(1, u - rng.randint(0, 1)) for u in d) for d in dead[:20]]
                queries += [tuple(min(f, u + 1) for u, f in zip(d, freq)) for d in dead[:20]]
                for q in queries:
                    naive = any(all(a >= b for a, b in zip(d, q)) for d in dead)
                    assert index.covers(graph.pack(q)) == naive, (freq, dead, q)
                    found[naive] += 1
        assert min(found.values()) >= 1000


class TestOptimalHeat:
    def test_figure1(self):
        result = ops_optimal_heat(figure1())
        assert result.status == FEASIBLE
        assert result.heat == 160
        assert result.predecessor == 144
        assert result.probes[Fraction(144)] == INFEASIBLE
        assert verify_dps(ops_to_dps(figure1(), 160), result.schedule) is None

    def test_rungs_name_what_settled_each_end(self):
        # figure 1: the load check settles 144, a search witness 160
        assert ops_optimal_heat(figure1()).rungs == (LOAD, SEARCH)
        # the search proves 23 infeasible; the round-robin schedule has heat 24
        result = ops_optimal_heat(dict(seeded_suite(1, 6))["rand-1-5"])
        assert (result.heat, result.predecessor) == (24, 23)
        assert result.rungs == (SEARCH, ROUND_ROBIN)
        # g_max is the least candidate: no predecessor to settle
        result = ops_optimal_heat(OpsInstance(2, ((0, 1),), (Fraction(7),)))
        assert (result.predecessor, result.rungs) == (None, (None, ROUND_ROBIN))

    def test_matches_the_plain_binary_search(self):
        suites = [seeded_suite(seed, 200) for seed in range(1, 6)] + [bench_corpus()]
        for suite in suites:
            for name, inst in suite:
                result = ops_optimal_heat(inst)
                expected = reference_optimal_heat(inst)
                assert (result.heat, result.predecessor) == (expected.heat, expected.predecessor), name
                assert verify_dps(ops_to_dps(inst, result.heat), result.schedule) is None, name
                assert heat(inst, result.schedule) == result.heat, name
                if result.predecessor is not None:
                    assert result.probes[result.predecessor] == INFEASIBLE, name

    def test_results_are_pinned(self):
        # one sha256 over every result on the seeded suites and the bench
        # corpus, at the default limits and at small budgets; a change that
        # moves a probe, a bracket or a witness must re-record it on purpose
        def line(result):
            schedule, bracket = result.schedule, result.bracket
            if schedule is not None:
                schedule = schedule.period, [sorted(day) for day in schedule.days]
            if bracket is not None:
                bracket = tuple(map(str, bracket))
            return repr((result.status, str(result.heat), str(result.predecessor),
                         [(str(h), v) for h, v in result.probes.items()],
                         bracket, result.rungs, schedule))

        suites = [seeded_suite(seed, 200) for seed in range(1, 6)] + [bench_corpus()]
        lines = [line(ops_optimal_heat(inst, limits))
                 for limits in (None, *(SearchLimits(max_states=k) for k in (1, 5, 20, 50)))
                 for suite in suites for _, inst in suite]
        assert len(lines) == 6150
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == RESULTS_DIGEST

    def test_heats_are_pinned(self):
        # the answer alone, at the default limits: recorded while the probes
        # ran over a candidate list, it holds for any probe order
        suites = [seeded_suite(seed, 200) for seed in range(1, 6)] + [bench_corpus()]
        results = [ops_optimal_heat(inst) for suite in suites for _, inst in suite]
        lines = [repr((r.status, str(r.heat), str(r.predecessor), r.rungs)) for r in results]
        assert len(lines) == 1230
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == HEATS_DIGEST

    def test_probes_gallop_up_from_the_floor(self):
        # on the integers x = h*L, while they are infeasible, the distinct
        # candidates of floor + 2^k - 1 below the ceiling are probed in turn,
        # so the first probe is the floor
        galloped = 0
        for seed in range(1, 6):
            for name, inst in seeded_suite(seed, 200):
                cands = heat_candidates(inst)
                denom = math.lcm(*(g.denominator for g in inst.growth))
                floor = next(h for h in cands if not overloaded(ops_to_dps(inst, h)))
                ceiling = heat(inst, round_robin_schedule(inst))
                probes = list(ops_optimal_heat(inst).probes.items())
                if floor == ceiling:
                    # at most the predecessor, which the load check settles
                    below = [h for h in cands if h < floor]
                    assert [h for h, _ in probes] in ([], below[-1:]), name
                    continue
                xs = takewhile(lambda x: x < ceiling,
                               (floor + Fraction(2**k - 1, denom) for k in count()))
                gallop = list(dict.fromkeys(max(c for c in cands if c <= x) for x in xs))
                assert probes[0][0] == floor, name
                for h, (probed, verdict) in zip(gallop, probes):
                    assert probed == h, name
                    if verdict == FEASIBLE:
                        break
                    galloped += 1
        assert galloped >= 400

    def test_skipping_dead_states_keeps_a_large_proof_small(self):
        # the infeasible predecessor probe of rand-5-48 enters 2,063 states;
        # 61,603 when the search skips no state, 23,710 when it skips only
        # the stuck ones, 3,639 when only the dominated ones
        inst = dict(seeded_suite(5, 200))["rand-5-48"]
        result = dps_feasible(ops_to_dps(inst, 23))
        assert result.status == INFEASIBLE
        assert result.explored <= 2500

    def test_probes_are_the_heats_dps_feasible_received(self, monkeypatch):
        # the bench's tracer zips `probes` with the `dps_feasible` spans
        received = []

        def recording(instance, *args, **kwargs):
            received.append(instance.freq)
            return dps_feasible(instance, *args, **kwargs)

        monkeypatch.setattr(exact, "dps_feasible", recording)
        for _, inst in seeded_suite(2, 40):
            for limits in (None, SearchLimits(max_states=20)):
                received.clear()
                result = ops_optimal_heat(inst, limits)
                assert [ops_to_dps(inst, h).freq for h in result.probes] == received

    def test_single_edge(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(7),))
        result = ops_optimal_heat(inst)
        assert result.heat == 7

    def test_enumerates_only_when_a_probe_searches(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_maximal_matchings(*args, **kwargs)

        built = []

        class CountingEdgeSet(exact._EdgeSet):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(exact, "enumerate_maximal_matchings", counting)
        monkeypatch.setattr(exact, "_EdgeSet", CountingEdgeSet)
        # 30 disjoint unit edges, above the enumeration cap: the load floor
        # meets the round-robin ceiling at g_max, so nothing is probed
        disjoint = OpsInstance(60, tuple((2 * i, 2 * i + 1) for i in range(30)), (1,) * 30)
        result = ops_optimal_heat(disjoint)
        assert (result.heat, result.probes, calls, len(built)) == (1, {}, [], 1)
        # figure 1: the probes share one context and so one enumeration, and
        # the predecessor probe the load check settles adds none
        built.clear()
        result = ops_optimal_heat(figure1())
        assert result.rungs == (LOAD, SEARCH) and len(calls) == 1
        assert len(result.probes) > 1 and len(built) == 1
        # a path of MATCHING_CAP + 1 unit edges needs a search and still raises
        path = OpsInstance(MATCHING_CAP + 2, tuple((i, i + 1) for i in range(MATCHING_CAP + 1)),
                           (1,) * (MATCHING_CAP + 1))
        with pytest.raises(MatchingCapExceeded):
            ops_optimal_heat(path)

    def test_search_limits_carry_the_matching_cap(self):
        # a path of MATCHING_CAP + 1 unit edges is above the default cap; the
        # limits alone widen it, for the optimal heat and for one decision
        m = MATCHING_CAP + 1
        edges = tuple((i, i + 1) for i in range(m))
        limits = SearchLimits(matching_cap=30)
        result = ops_optimal_heat(OpsInstance(m + 1, edges, (1,) * m), limits)
        assert (result.status, result.heat, result.predecessor) == (FEASIBLE, 2, 1)
        assert dps_feasible(DpsInstance(m + 1, edges, (2,) * m), limits).status == FEASIBLE
        with pytest.raises(MatchingCapExceeded):
            dps_feasible(DpsInstance(m + 1, edges, (2,) * m))

    def test_lists_only_the_candidates_from_the_floor(self):
        # growth 1000 and 1/997 put 1,994,001 candidates in [g_max, 3*g_max];
        # the floor is the round-robin heat, so the one probe is its
        # predecessor, which the load check settles
        path = OpsInstance(3, ((0, 1), (1, 2)), (Fraction(1000), Fraction(1, 997)))
        # a triangle of growth 1000 beside that edge: 997,001 candidates from
        # the floor 2000 to the optimum 3000, the round-robin heat, and 38
        # probes, none of which builds a list of them
        triangle = OpsInstance(5, ((0, 1), (0, 2), (1, 2), (3, 4)),
                               (Fraction(1000),) * 3 + (Fraction(1, 997),))
        for inst, h_star, pred, rungs, probed in [
            (path, 2000, Fraction(1993999, 997), (LOAD, ROUND_ROBIN), 1),
            (triangle, 3000, Fraction(2990999, 997), (SEARCH, ROUND_ROBIN), 38),
        ]:
            tracemalloc.start()
            try:
                result = ops_optimal_heat(inst)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (result.heat, result.predecessor) == (h_star, pred)
            assert result.probes[pred] == INFEASIBLE and len(result.probes) == probed
            assert result.rungs == rungs
            assert peak < 16 * 2**20, peak

    def test_unit_triangle(self):
        inst = OpsInstance(3, ((0, 1), (0, 2), (1, 2)), (1, 1, 1))
        assert ops_optimal_heat(inst).heat == 3

    def test_candidates_contain_optimum(self):
        inst = figure1()
        cands = heat_candidates(inst)
        assert Fraction(160) in cands
        assert all(c >= inst.g_max for c in cands)

    def test_candidates_match_fraction_loop(self):
        def reference(inst):
            hi = (inst.max_degree + 1) * inst.g_max
            cands = set()
            for g in set(inst.growth):
                q = 1
                while g * q <= hi:
                    if g * q >= inst.g_max:
                        cands.add(g * q)
                    q += 1
            return sorted(cands)

        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(2, 8)
            pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
            edges = tuple(rng.sample(pool, rng.randint(1, min(len(pool), 12))))
            growth = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in edges)
            inst = OpsInstance(n, edges, growth)
            assert heat_candidates(inst) == reference(inst)

    def test_probe_monotonicity(self):
        result = ops_optimal_heat(figure1())
        feas = sorted(h for h, v in result.probes.items() if v == FEASIBLE)
        infeas = sorted(h for h, v in result.probes.items() if v == INFEASIBLE)
        assert not infeas or not feas or max(infeas) < min(feas)

    def test_bad_witness_raises_under_optimize_flag(self):
        # the witness check must survive `python -O`, which strips asserts
        script = (
            "from polysched import core, exact\n"
            "from polysched.generators import pentagon\n"
            "exact.verify_dps = lambda *a: core.Violation('gap-too-large', 0, 0)\n"
            "exact.ops_optimal_heat(core.dps_to_ops(pentagon()))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode != 0
        assert "fails verification" in proc.stderr

    def test_inconclusive_bracket_holds_the_optimum(self):
        # an inconclusive search brackets the optimum above its largest
        # infeasible probe, or else the load floor's predecessor, and at or
        # below its smallest feasible probe, or else the round-robin heat
        for _, inst in seeded_suite(1, 12):
            h_star = ops_optimal_heat(inst).heat
            cands = heat_candidates(inst)
            below_floor = max((h for h in cands if overloaded(ops_to_dps(inst, h))), default=None)
            round_robin = heat(inst, round_robin_schedule(inst))
            for max_states in (1, 5, 20, 50, 200):
                result = ops_optimal_heat(inst, SearchLimits(max_states=max_states))
                if result.status == FEASIBLE:
                    assert result.heat == h_star and result.bracket is None
                    continue
                assert result.status == INCONCLUSIVE and result.heat is None
                lower, upper = result.bracket
                probed = result.probes.items()
                assert lower == max((h for h, v in probed if v == INFEASIBLE),
                                    default=below_floor)
                assert upper == min((h for h, v in probed if v == FEASIBLE),
                                    default=round_robin)
                assert lower is None or lower < h_star
                assert h_star <= upper

    def test_budget_runs_out_inside_the_search(self):
        # the load check fails at 17 and passes at 18, the round-robin
        # schedule has heat 24, and the first probe, at the floor 18, runs
        # out of states (it needs 34)
        inst = dict(seeded_suite(1, 6))["rand-1-5"]
        result = ops_optimal_heat(inst, SearchLimits(max_states=20))
        assert result.status == INCONCLUSIVE
        assert result.bracket == (17, 24)
        assert result.rungs == (LOAD, ROUND_ROBIN)
        assert result.probes == {Fraction(18): INCONCLUSIVE}
        assert ops_optimal_heat(inst).heat == 24

    def test_matches_brute_force_heat_on_tiny_instances(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(2, 4)
            pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
            m = rng.randint(1, min(len(pool), 3))
            edges = tuple(sorted(rng.sample(pool, m)))
            growth = tuple(Fraction(rng.randint(1, 4)) for _ in edges)
            inst = OpsInstance(n, edges, growth)
            result = ops_optimal_heat(inst)
            # independent check: h* is the least candidate whose floor
            # frequencies admit a brute-force schedule
            for h in heat_candidates(inst):
                dps = ops_to_dps(inst, h)
                ok = brute_force_dps_feasible(dps, max_period=math.prod(dps.freq) + 1)
                if ok:
                    assert result.heat == h
                    break
