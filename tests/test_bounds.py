import random
import warnings
from fractions import Fraction

import pytest
from helpers import run_under_optimize

from polysched.bounds import (
    BoundReport,
    DualWeights,
    bamboo_bound,
    best_bound,
    dual_value,
    growth_proportional_weights,
    poly_density,
    poly_density_bound,
    subset_bound,
    total_growth_bound,
    trivial_bound,
    verify_certificate,
)
from polysched.core import OpsInstance, dps_to_ops
from polysched.exact import FEASIBLE, ops_optimal_heat
from polysched.generators import figure1, tadpole
from polysched.matchings import MATCHING_CAP, MatchingCapExceeded
from polysched.report import random_ops_instance


def tadpole_ops(k, f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dps_to_ops(tadpole(k, f))


def star(*growths):
    return OpsInstance(len(growths) + 1,
                       tuple((0, i + 1) for i in range(len(growths))),
                       tuple(Fraction(g) for g in growths))


class TestSimpleBounds:
    def test_trivial_figure1(self):
        # Daisy has degree 4 and g_min is 16, so both branches give 80
        assert trivial_bound(figure1()).value == 80

    def test_trivial_single_edge(self):
        assert trivial_bound(star(7)).value == 7

    def test_trivial_regular_unweighted(self):
        edges = tuple((i, (i + 1) % 6) for i in range(6))
        inst = OpsInstance(6, edges, (1,) * 6)
        assert trivial_bound(inst).value == 2

    def test_bamboo_figure1_alex(self):
        report = bamboo_bound(figure1())
        assert report.value == 160  # 40 + 80 + 40 incident to Alex
        assert report.certificate == 0

    def test_bamboo_star(self):
        report = bamboo_bound(star(2, 3, 5))
        assert report.value == 10 and report.certificate == 0

    def test_bamboo_single_edge(self):
        assert bamboo_bound(star(9)).value == 9

    def test_mass_tadpole_formula(self):
        for k in (1, 2, 3, 4):
            for f in (3, 4, 5):
                ops = tadpole_ops(k, f)
                report = total_growth_bound(ops)
                g_total = Fraction(7, 6) + Fraction(k, f)
                m_size = 1 + (k + 1) // 2
                assert report.value == g_total / m_size

    def test_mass_single_edge(self):
        assert total_growth_bound(star(5)).value == 5

    def test_mass_arbitrarily_weak(self):
        strong = poly_density(tadpole_ops(1, 3)).value
        weak = total_growth_bound(tadpole_ops(9, 9)).value
        assert weak < Fraction(1, 2) < strong

    def test_subset_bound_tadpole_triangle(self):
        ops = tadpole_ops(3, 3)
        report = subset_bound(ops, (0, 1, 2), poly_density_bound)
        assert report.value == Fraction(7, 6)

    def test_subset_identity(self):
        ops = figure1()
        assert subset_bound(ops, range(ops.m), trivial_bound).value == \
            trivial_bound(ops).value

    def test_subset_single_max_edge(self):
        ops = figure1()
        heaviest = max(range(ops.m), key=lambda e: ops.growth[e])
        assert subset_bound(ops, (heaviest,), trivial_bound).value == ops.g_max

    def test_subset_validates_indices(self):
        with pytest.raises(ValueError):
            subset_bound(star(1), (5,), trivial_bound)


class TestDualValue:
    def test_growth_proportional_equals_mass(self):
        rng = random.Random(3)
        for _ in range(60):
            inst = random_ops_instance(rng, max_edges=8)
            z = growth_proportional_weights(inst)
            assert dual_value(inst, z) == total_growth_bound(inst).value

    def test_single_edge_full_weight(self):
        inst = star(6)
        assert dual_value(inst, DualWeights((Fraction(1),))) == 6

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            DualWeights((Fraction(1, 2),))
        with pytest.raises(ValueError):
            DualWeights((Fraction(-1), Fraction(2)))


class TestPolyDensity:
    def test_tadpole_grid_exactly_seven_sixths(self):
        for k in (1, 2, 3):
            for f in (2, 3, 4):
                result = poly_density(tadpole_ops(k, f))
                assert result.value == Fraction(7, 6)
                assert result.primal_objective == result.dual_objective

    def test_tadpole_dual_weights_regression(self):
        # frozen once from the LP: all weight on the triangle, split by rate
        result = poly_density(tadpole_ops(2, 3))
        assert result.dual.z[:3] == (Fraction(3, 7), Fraction(2, 7), Fraction(2, 7))
        assert all(z == 0 for z in result.dual.z[3:])

    def test_single_edge(self):
        assert poly_density(star(5)).value == 5

    def test_star_equals_bamboo_and_total_growth(self):
        inst = star(2, 3, 7)
        result = poly_density(inst)
        assert result.value == 12
        assert result.dual_objective == Fraction(1, 12)  # always 1/G on stars

    def test_certified_by_dual_value(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = random_ops_instance(rng, max_edges=8)
            result = poly_density(inst)
            assert dual_value(inst, result.dual) == result.value

    def test_dominates_its_own_specializations(self):
        # the LP optimum is at least the value of any specific feasible z,
        # in particular the growth-proportional one behind the mass bound
        rng = random.Random(19)
        for _ in range(40):
            inst = random_ops_instance(rng, max_edges=8)
            best = poly_density(inst).value
            assert best >= dual_value(inst, growth_proportional_weights(inst))

    def test_cap_is_typed(self):
        m = MATCHING_CAP + 1
        inst = OpsInstance(m + 1, tuple((i, i + 1) for i in range(m)), (1,) * m)
        with pytest.raises(MatchingCapExceeded):
            poly_density(inst)


class TestAgainstExactOptimum:
    def test_every_bound_below_h_star(self):
        rng = random.Random(11)
        for _ in range(60):
            inst = random_ops_instance(rng, max_edges=8)
            result = ops_optimal_heat(inst)
            assert result.status == FEASIBLE
            for fn in (trivial_bound, bamboo_bound, total_growth_bound,
                       poly_density_bound, best_bound):
                assert fn(inst).value <= result.heat


class TestCertificates:
    def test_recompute_all_methods(self):
        inst = figure1()
        for fn in (trivial_bound, bamboo_bound, total_growth_bound, poly_density_bound):
            assert verify_certificate(inst, fn(inst))

    def test_subset_certificate(self):
        ops = tadpole_ops(2, 3)
        report = subset_bound(ops, (0, 1, 2), poly_density_bound)
        assert verify_certificate(ops, report)

    def test_forged_value_fails(self):
        inst = figure1()
        forged = BoundReport("bamboo", Fraction(999), 0)
        assert not verify_certificate(inst, forged)


# each patch breaks one exact check of poly_density on a single edge of
# growth 1, whose LP optimum is objective 1 with duals (1, 1)
BROKEN_LP = {
    "strong_duality": ("sol.objective += 1", "strong duality fails"),
    "dual_feasibility": ("sol.duals[1] = Fraction(-1)", "not feasible"),
    "unit_mass": ("sol.duals[1] = Fraction(1, 2)", "do not sum to 1"),
    # the matching's sum 1 exceeds x* = 1/2; the dual_value re-check is the
    # one dual-feasibility check and names the failure
    "matching_constraint": ("sol.objective = sol.duals[0] = Fraction(1, 2)",
                            "dual value of the weights is below the poly density 2"),
    "dual_value": ("bounds.dual_value = lambda *a, **k: Fraction(0)", "below the poly density"),
}


@pytest.mark.parametrize("check", list(BROKEN_LP))
def test_lp_checks_raise_under_optimize_flag(check):
    patch, message = BROKEN_LP[check]
    script = (
        "from fractions import Fraction\n"
        "from polysched import bounds\n"
        "from polysched.core import OpsInstance\n"
        "solve_max = bounds.solve_max\n"
        "def broken(*args):\n"
        "    sol = solve_max(*args)\n"
        f"    {patch}\n"
        "    return sol\n"
        "bounds.solve_max = broken\n"
        "bounds.poly_density(OpsInstance(2, ((0, 1),), (1,)))\n"
    )
    proc = run_under_optimize(script)
    assert proc.returncode != 0
    assert message in proc.stderr
