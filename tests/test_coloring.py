import random
from fractions import Fraction

import pytest
from helpers import run_under_optimize

from polysched.coloring import (
    COLORING_CAP,
    chromatic_index,
    color_edges,
    coloring_from_schedule,
    exact_edge_colorable,
    is_proper,
    round_robin_schedule,
    trivial_vs_ratio_bound,
    unweighted_heat_feasible,
)
from polysched.core import OpsInstance, PeriodicSchedule, heat
from polysched.generators import petersen_unit, unweighted_fig4


def random_graph(rng, max_n=12, max_m=20):
    n = rng.randint(2, max_n)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(1, min(len(pool), max_m))
    return n, tuple(sorted(rng.sample(pool, m)))


class TestColorEdges:
    def test_single_edge(self):
        assert color_edges(2, ((0, 1),)).n_colors == 1

    def test_improper_coloring_raises_under_optimize_flag(self):
        script = (
            "from polysched import coloring\n"
            "coloring.is_proper = lambda edges, colors: False\n"
            "coloring.color_edges(2, ((0, 1),))\n"
        )
        proc = run_under_optimize(script)
        assert proc.returncode != 0
        assert "is not proper" in proc.stderr

    def test_triangle_three_colors(self):
        col = color_edges(3, ((0, 1), (0, 2), (1, 2)))
        assert col.n_colors == 3

    def test_fig4_within_delta_plus_one(self):
        inst = unweighted_fig4()
        col = color_edges(inst.n, inst.edges)
        assert is_proper(inst.edges, col.colors)
        assert col.n_colors <= 4

    def test_proper_and_bounded_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(300):
            n, edges = random_graph(rng)
            deg = [0] * n
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            col = color_edges(n, edges)
            assert is_proper(edges, col.colors)
            assert col.n_colors <= max(deg) + 1

    def test_deterministic(self):
        inst = unweighted_fig4()
        assert color_edges(inst.n, inst.edges) == color_edges(inst.n, inst.edges)

    def test_structured_families(self):
        cases = []
        for n in range(2, 9):  # complete graphs; odd ones need Delta+1
            cases.append((n, [(a, b) for a in range(n) for b in range(a + 1, n)]))
        for p, q in ((2, 3), (3, 3), (4, 2)):
            cases.append((p + q, [(a, p + b) for a in range(p) for b in range(q)]))
        for n in range(3, 9):  # cycles
            cases.append((n, [(i, (i + 1) % n) for i in range(n)]))
        for n, raw in cases:
            edges = tuple(sorted(tuple(sorted(e)) for e in raw))
            deg = [0] * n
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            col = color_edges(n, edges)
            assert is_proper(edges, col.colors)
            assert col.n_colors <= max(deg) + 1


class TestExactColorability:
    def test_fig4_three_colorable(self):
        inst = unweighted_fig4()
        assert exact_edge_colorable(inst.n, inst.edges, 3) is True
        assert chromatic_index(inst.n, inst.edges) == 3

    def test_below_delta_impossible(self):
        inst = unweighted_fig4()
        assert exact_edge_colorable(inst.n, inst.edges, 2) is False

    def test_petersen_needs_four(self):
        pet = petersen_unit()
        assert exact_edge_colorable(pet.n, pet.edges, 3) is False
        assert chromatic_index(pet.n, pet.edges) == 4

    def test_odd_cycle(self):
        edges = tuple((i, (i + 1) % 5) for i in range(5))
        assert chromatic_index(5, edges) == 3

    def test_cap_returns_none(self):
        m = COLORING_CAP + 1
        edges = tuple((0, i + 1) for i in range(m))
        assert exact_edge_colorable(m + 1, edges, m) is None
        assert chromatic_index(m + 1, edges) is None
        assert exact_edge_colorable(m, edges[:-1], m - 1) is True


class TestRoundRobin:
    def test_single_edge_period_one(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(5),))
        sched = round_robin_schedule(inst)
        assert sched.period == 1
        assert heat(inst, sched) == 5

    def test_star_period_k(self):
        k = 6
        inst = OpsInstance(k + 1, tuple((0, i + 1) for i in range(k)), (1,) * k)
        sched = round_robin_schedule(inst)
        assert sched.period == k
        assert heat(inst, sched) == k

    def test_fig4_heat_at_most_four(self):
        inst = unweighted_fig4()
        assert heat(inst, round_robin_schedule(inst)) <= 4

    def test_ratio_vs_trivial_bound_on_random(self):
        rng = random.Random(29)
        for _ in range(100):
            n, edges = random_graph(rng, max_n=8, max_m=12)
            growth = tuple(Fraction(rng.randint(1, 9)) for _ in edges)
            inst = OpsInstance(n, edges, growth)
            achieved = heat(inst, round_robin_schedule(inst))
            delta = inst.max_degree
            lower = max(delta * inst.g_min, inst.g_max)
            assert achieved <= trivial_vs_ratio_bound(inst) * lower


class TestUnweightedBridge:
    def test_fig4_h3_exists(self):
        report = unweighted_heat_feasible(unweighted_fig4(), 3)
        assert report.exists is True and not report.upper_bound_only

    def test_below_delta_never(self):
        report = unweighted_heat_feasible(unweighted_fig4(), 2)
        assert report.exists is False

    def test_petersen_h3_does_not_exist(self):
        report = unweighted_heat_feasible(petersen_unit(), 3)
        assert report.exists is False

    def test_requires_unit_growth(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(2),))
        with pytest.raises(ValueError):
            unweighted_heat_feasible(inst, 2)

    def test_heuristic_flag_beyond_cap(self):
        m = COLORING_CAP + 1  # odd, so the cycle needs 3 colors
        edges = tuple((i, (i + 1) % m) for i in range(m))
        inst = OpsInstance(m, edges, (1,) * m)
        report = unweighted_heat_feasible(inst, 2)
        assert report.upper_bound_only and report.exists is None

    def test_schedule_to_coloring_extraction(self):
        inst = unweighted_fig4()
        sched = round_robin_schedule(inst)
        h = sched.period
        coloring = coloring_from_schedule(inst, sched, h)
        assert is_proper(inst.edges, coloring.colors)

    def test_extraction_from_exact_solver_witnesses(self):
        # any heat-h schedule of a unit instance yields a proper h-coloring
        from polysched.exact import FEASIBLE, ops_optimal_heat
        rng = random.Random(37)
        for _ in range(15):
            n, edges = random_graph(rng, max_n=7, max_m=10)
            inst = OpsInstance(n, edges, (Fraction(1),) * len(edges))
            result = ops_optimal_heat(inst)
            assert result.status == FEASIBLE
            h = int(result.heat)
            coloring = coloring_from_schedule(inst, result.schedule, h)
            assert is_proper(inst.edges, coloring.colors)
            assert all(c < h for c in coloring.colors)

    def test_extraction_requires_coverage(self):
        inst = OpsInstance(3, ((0, 1), (1, 2)), (1, 1))
        sched = PeriodicSchedule(3, (frozenset({0}), frozenset({1}), frozenset()))
        with pytest.raises(ValueError):
            coloring_from_schedule(inst, sched, 1)
