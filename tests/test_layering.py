import math
import random
from fractions import Fraction

import pytest

from polysched.bounds import best_bound
from polysched.core import OpsInstance, heat
from polysched.generators import figure1
from polysched.layering import (
    build_layered_schedule,
    decompose,
    layered_schedule,
    ratio_guarantee,
)
from polysched.report import random_ops_instance


class TestDecompose:
    def test_all_equal_single_band(self):
        inst = OpsInstance(3, ((0, 1), (1, 2)), (3, 3))
        decomp = decompose(inst, 2)
        assert decomp.layers[0] == (0, 1)
        assert decomp.layers[1] == () and decomp.layers[2] == ()

    def test_bands_8_3_1(self):
        inst = OpsInstance(4, ((0, 1), (1, 2), (2, 3)), (8, 3, 1))
        decomp = decompose(inst, 2)
        assert decomp.layers == ((0,), (1,), (2,))

    def test_figure1_bands(self):
        # g_max = 80: band 0 holds g > 40, band 1 holds 20 < g <= 40, band 2 the rest
        inst = figure1()
        decomp = decompose(inst, 2)
        by_band = [{int(inst.growth[e]) for e in band} for band in decomp.layers]
        assert by_band[0] == {80}
        assert by_band[1] == {40}
        assert by_band[2] == {16, 20}

    def test_partition_property(self):
        rng = random.Random(41)
        for _ in range(100):
            inst = random_ops_instance(rng)
            level = rng.randint(0, 5)
            decomp = decompose(inst, level)
            seen = [e for band in decomp.layers for e in band]
            assert sorted(seen) == list(range(inst.m))

    def test_boundary_is_half_open(self):
        inst = OpsInstance(3, ((0, 1), (1, 2)), (4, 2))
        decomp = decompose(inst, 1)
        # g = 2 = g_max/2 goes to the lower band, not band 0
        assert decomp.layers == ((0,), (1,))
        # g = g_max/2^i opens band i; a hair above it stays in band i-1, and
        # band L takes everything from g_max/2^L down
        g_max = Fraction(3, 7)
        growth = [g_max / 2**i for i in range(6)]
        growth += [g_max / 2**i * Fraction(1001, 1000) for i in range(1, 6)]
        inst = OpsInstance(12, tuple((0, j) for j in range(1, 12)), tuple(growth))
        for level in range(6):
            want = [min(i, level) for i in range(6)] + [min(i - 1, level) for i in range(1, 6)]
            layers = decompose(inst, level).layers
            assert [next(b for b, band in enumerate(layers) if e in band)
                    for e in range(inst.m)] == want


class TestLayeredSchedule:
    def test_single_band_reduces_to_coloring(self):
        inst = OpsInstance(3, ((0, 1), (1, 2)), (5, 5))
        result = build_layered_schedule(inst, 2)
        # trailing empty bands are dropped: no dilation
        assert result.schedule.period == 2
        assert result.achieved_heat == 10

    def test_heat_within_stated_bound(self):
        rng = random.Random(43)
        for _ in range(80):
            inst = random_ops_instance(rng)
            level = rng.randint(0, 4)
            result = build_layered_schedule(inst, level)
            assert result.achieved_heat <= result.per_layer_bound

    def test_bamboo_like_star(self):
        growths = tuple(Fraction(1, 2 ** i) for i in range(6))
        inst = OpsInstance(7, tuple((0, i + 1) for i in range(6)), growths)
        result = layered_schedule(inst)
        lower = best_bound(inst).value
        assert result.achieved_heat <= ratio_guarantee(inst) * lower

    def test_ratio_on_seeded_random_instances(self):
        rng = random.Random(47)
        for _ in range(60):
            inst = random_ops_instance(rng)
            result = layered_schedule(inst)
            lower = best_bound(inst).value
            guarantee = max(1.0, 3 * math.log2(inst.max_degree + 1))
            assert result.achieved_heat <= guarantee * lower

    def test_interior_empty_band_is_noop_day(self):
        inst = OpsInstance(4, ((0, 1), (1, 2), (2, 3)), (8, 8, 1))
        result = build_layered_schedule(inst, 3)
        assert any(day == frozenset() for day in result.schedule.days)
        assert heat(inst, result.schedule) == result.achieved_heat

    def test_requires_edges(self):
        with pytest.raises(ValueError):
            decompose(OpsInstance(2, (), ()), 1)
