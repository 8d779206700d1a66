import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    first_reaching_assignment,
    heat_by_desire_simulation,
    max_gap_by_unrolling,
    per_edge_heat,
    per_edge_verify_dps,
)

from polysched.core import (
    DpsInstance,
    InstanceError,
    OpsInstance,
    PeriodicSchedule,
    UNBOUNDED,
    as_rational,
    dps_to_ops,
    heat,
    normalize,
    ops_to_dps,
    recurrence_time,
    verify_dps,
)
from polysched.generators import figure1, figure1_schedule, tadpole, triangle_f2
from polysched.satred import compile_formula, demo_formula, synthesize_schedule


def schedule_of(*days):
    return PeriodicSchedule(len(days), tuple(frozenset(d) for d in days))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def random_instance_and_schedule(rng):
    n = rng.randint(2, 6)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(1, min(len(pool), 8))
    edges = tuple(sorted(rng.sample(pool, m)))
    growth = tuple(Fraction(rng.randint(1, 9)) for _ in edges)
    inst = OpsInstance(n, edges, growth)
    period = rng.randint(1, 10)
    days = []
    for _ in range(period):
        day = set()
        used = set()
        for e in rng.sample(range(m), m):
            a, b = edges[e]
            if a not in used and b not in used and rng.random() < 0.6:
                day.add(e)
                used.update((a, b))
        days.append(frozenset(day))
    return inst, PeriodicSchedule(period, tuple(days))


class TestRational:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(ValueError):
            OpsInstance(2, ((0, 1),), (0,))

    def test_decimal_strings_exact(self):
        assert as_rational("0.25") == Fraction(1, 4)
        assert as_rational("7/6") == Fraction(7, 6)


@pytest.mark.parametrize("edges, message", [
    (((0, 5), (1, 1)), "self-loop on person 1"),
    (((2, 1), (1, 2), (0, 0)), "self-loop on person 0"),
    (((0, 1), (2, 9), (1, 0)), "edge (2,9) out of range for 4 persons"),
    (((0, 1), (-1, 2)), "edge (-1,2) out of range for 4 persons"),
    (((1, 0), (0, 1), (3, 9)), "duplicate edge (0,1); graph must be simple"),
])
def test_first_invalid_edge_is_named(edges, message):
    """Self-loops are found first, then the first edge out of range or repeated."""
    with pytest.raises(ValueError) as err:
        DpsInstance(4, edges, (1,) * len(edges))
    assert str(err.value) == message


@pytest.mark.parametrize("make, message, edge", [
    (lambda: DpsInstance(-3, (), ()), "person count -3 is negative", None),
    (lambda: DpsInstance(4, ((0, 1), (2, 9), (3, 3)), (1, 1, 1)), "self-loop on person 3", 2),
    (lambda: DpsInstance(4, ((1, 0), (2, 3), (0, 1)), (1, 1, 1)),
     "duplicate edge (0,1); graph must be simple", 2),
    (lambda: OpsInstance(3, ((0, 1), (1, 2)), (1, 0)), "growth rates must be strictly positive", 1),
    (lambda: DpsInstance(3, ((0, 1), (1, 2)), (2, True)), "frequencies must be integers >= 1", 1),
    (lambda: OpsInstance(3, ((0, 1),), (1, 2)), "need exactly one growth rate per edge", None),
], ids=["negative-n", "self-loop", "duplicate", "zero-growth", "bool-frequency", "value-count"])
def test_instance_error_carries_the_bad_edge(make, message, edge):
    with pytest.raises(InstanceError) as err:
        make()
    assert str(err.value) == message and err.value.edge == edge


class TestRecurrence:
    def test_figure1_ad_every_other_day(self):
        inst = figure1()
        sched = figure1_schedule()
        ad = inst.edge_index()[(0, 3)]  # Alex-Daisy
        assert recurrence_time(sched, ad) == 2

    def test_everyday_edge(self):
        sched = schedule_of({0}, {0}, {0})
        assert recurrence_time(sched, 0) == 1

    def test_period6_days01_gap5(self):
        # oracle: brute-force max gap over three unrolled periods
        sched = schedule_of({0}, {0}, set(), set(), set(), set())
        assert max_gap_by_unrolling(sched, 0) == 5
        assert recurrence_time(sched, 0) == 5

    def test_missing_edge_unbounded(self):
        sched = schedule_of({0}, set())
        assert recurrence_time(sched, 1) is UNBOUNDED

    def test_random_against_unrolled_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            inst, sched = random_instance_and_schedule(rng)
            for e in range(inst.m):
                assert recurrence_time(sched, e) == max_gap_by_unrolling(sched, e)


class TestHeat:
    def test_figure1_heat_160(self):
        assert heat(figure1(), figure1_schedule()) == 160

    def test_single_edge_daily(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(1),))
        assert heat(inst, schedule_of({0})) == 1

    def test_triangle_round_robin(self):
        inst = OpsInstance(3, ((0, 1), (0, 2), (1, 2)), (1, 1, 1))
        assert heat(inst, schedule_of({0}, {1}, {2})) == 3

    def test_matches_desire_simulation(self):
        rng = random.Random(11)
        for _ in range(120):
            inst, sched = random_instance_and_schedule(rng)
            assert heat(inst, sched) == heat_by_desire_simulation(inst, sched)


class TestVerify:
    def test_figure1_at_160_ok(self):
        dps = ops_to_dps(figure1(), 160)
        assert verify_dps(dps, figure1_schedule()) is None

    def test_triangle_all_f2_single_matching_days(self):
        tri = triangle_f2()
        sched = schedule_of({0}, {1}, {2})
        violation = verify_dps(tri, sched)
        assert violation is not None
        assert violation.kind == "gap-too-large"

    def test_single_edge_daily_ok(self):
        dps = DpsInstance(2, ((0, 1),), (1,))
        assert verify_dps(dps, schedule_of({0})) is None

    def test_non_matching_day_flagged(self):
        dps = DpsInstance(3, ((0, 1), (1, 2)), (2, 2))
        violation = verify_dps(dps, schedule_of({0, 1}, {0, 1}))
        assert violation is not None and violation.kind == "not-a-matching"

    def test_missing_edge_flagged(self):
        dps = DpsInstance(3, ((0, 1), (1, 2)), (2, 2))
        violation = verify_dps(dps, schedule_of({0}, {0}))
        assert violation is not None and violation.kind == "never-scheduled"

    def test_matches_per_edge_reference(self):
        """First violation and heat as a per-edge scan gives, on every violation kind."""
        rng = random.Random(23)
        kinds = Counter()
        for _ in range(400):
            inst, sched = random_instance_and_schedule(rng)
            days = [set(d) for d in sched.days]
            t = rng.randrange(len(days))
            roll = rng.random()
            if roll < 0.15:
                days[t].add(rng.choice([-1, inst.m, inst.m + 3]))
            elif roll < 0.35:
                a, b = inst.edges[rng.randrange(inst.m)]
                days[t].update(e for e, (x, y) in enumerate(inst.edges) if {x, y} & {a, b})
            sched = PeriodicSchedule(len(days), tuple(days))
            freq = tuple(rng.randint(1, len(days) + 1) for _ in range(inst.m))
            dps = DpsInstance(inst.n, inst.edges, freq)
            expected = per_edge_verify_dps(dps, sched)
            assert verify_dps(dps, sched) == expected
            kinds[expected and expected.kind] += 1
            assert _outcome(heat, inst, sched) == _outcome(per_edge_heat, inst, sched)
        assert set(kinds) == {None, "bad-edge-index", "not-a-matching",
                              "never-scheduled", "gap-too-large"}
        assert min(kinds.values()) >= 20, kinds

        # a compiled reduction instance, with one occurrence dropped, one
        # conflicting edge added to a day, or one out-of-range index added
        formula = demo_formula()
        art = compile_formula(formula)
        dps = art.dps
        base = synthesize_schedule(art, first_reaching_assignment(formula))
        assert per_edge_verify_dps(dps, base) is None
        compiled = Counter()
        for case in ("drop", "conflict", "index") * 6:
            days = [set(d) for d in base.days]
            t = rng.randrange(len(days))
            if case == "drop":
                days[t].discard(rng.choice(sorted(days[t])))
            elif case == "conflict":
                busy = {p for e in days[t] for p in dps.edges[e]}
                days[t].add(rng.choice([e for e in range(dps.m)
                                        if e not in days[t] and busy & set(dps.edges[e])]))
            else:
                days[t].add(rng.choice([-1, dps.m, dps.m + 5]))
            sched = PeriodicSchedule(len(days), tuple(days))
            expected = per_edge_verify_dps(dps, sched)
            assert verify_dps(dps, sched) == expected
            compiled[expected and expected.kind] += 1
        assert compiled["bad-edge-index"] == compiled["not-a-matching"] == 6, compiled
        assert compiled["gap-too-large"] + compiled["never-scheduled"] == 6, compiled


class TestConversions:
    def test_floor_division(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(80),))
        assert ops_to_dps(inst, 160).freq == (2,)
        assert ops_to_dps(inst, 80).freq == (1,)

    def test_figure1_frequencies(self):
        assert ops_to_dps(figure1(), 160).freq == (4, 2, 10, 8, 4, 4, 4, 2, 10, 2)

    def test_heat_below_g_max_rejected(self):
        with pytest.raises(ValueError, match="heat below max growth rate"):
            ops_to_dps(figure1(), 79)

    def test_dps_to_ops_reciprocal(self):
        dps = DpsInstance(3, ((0, 1), (1, 2)), (2, 3))
        assert dps_to_ops(dps).growth == (Fraction(1, 2), Fraction(1, 3))

    def test_tadpole_ops_growths(self):
        ops = dps_to_ops(tadpole(2, 3))
        assert ops.growth[:3] == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
        assert set(ops.growth[3:]) == {Fraction(1, 3)}

    def test_f1_gives_g1(self):
        assert dps_to_ops(DpsInstance(2, ((0, 1),), (1,))).growth == (Fraction(1),)

    def test_feasible_floor_frequencies_bound_heat(self):
        # feasible for the floor-frequencies => heat <= h, and the converse
        rng = random.Random(23)
        checked = 0
        for _ in range(200):
            inst, sched = random_instance_and_schedule(rng)
            h = Fraction(rng.randint(1, 12) * max(inst.growth), rng.randint(1, 3))
            if h < inst.g_max:
                continue
            dps = ops_to_dps(inst, h)
            if verify_dps(dps, sched) is None:
                assert heat(inst, sched) <= h
                checked += 1
            elif heat(inst, sched) is not UNBOUNDED and heat(inst, sched) > h:
                assert verify_dps(dps, sched) is not None
        assert checked > 10

    def test_extension_to_maximal_matching_never_hurts(self):
        rng = random.Random(31)
        for _ in range(60):
            inst, sched = random_instance_and_schedule(rng)
            extended = []
            for day in sched.days:
                day = set(day)
                used = {p for e in day for p in inst.edges[e]}
                for e in range(inst.m):
                    a, b = inst.edges[e]
                    if a not in used and b not in used:
                        day.add(e)
                        used.update((a, b))
                extended.append(frozenset(day))
            bigger = PeriodicSchedule(sched.period, tuple(extended))
            for e in range(inst.m):
                r0, r1 = recurrence_time(sched, e), recurrence_time(bigger, e)
                assert r1 <= r0 or r0 is UNBOUNDED


class TestNormalize:
    def test_figure1_unit_fractions(self):
        norm = normalize(figure1(), figure1_schedule())
        assert set(norm.growth) == {Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)}
        assert heat(norm, figure1_schedule()) == 1

    def test_single_daily_edge(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(7),))
        assert normalize(inst, schedule_of({0})).growth == (Fraction(1),)

    def test_triangle_round_robin_thirds(self):
        inst = OpsInstance(3, ((0, 1), (0, 2), (1, 2)), (5, 1, 2))
        norm = normalize(inst, schedule_of({0}, {1}, {2}))
        assert norm.growth == (Fraction(1, 3),) * 3

    def test_unbounded_schedule_rejected(self):
        inst = OpsInstance(3, ((0, 1), (1, 2)), (1, 1))
        with pytest.raises(ValueError):
            normalize(inst, schedule_of({0}))

    def test_bad_edge_index_rejected_as_heat_rejects_it(self):
        inst = OpsInstance(2, ((0, 1),), (Fraction(7),))
        sched = schedule_of({0}, {5})
        for judge in (heat, normalize):
            with pytest.raises(ValueError, match="bad-edge-index"):
                judge(inst, sched)
