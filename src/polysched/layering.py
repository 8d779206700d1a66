"""Geometric growth-rate banding with interleaved per-band coloring schedules.

Band i < L holds edges with g_max/2^(i+1) < g <= g_max/2^i; band L catches
everything at or below g_max/2^L. Each band is scheduled round-robin from a
proper coloring and the bands are interleaved one day each, which costs a
dilation factor of the number of bands but keeps every band near-uniform in
weight. Achieved heat stays within 3*lg(Delta+1) of the optimum.

An edge's band index, floor(lg(g_max/g)), is computed once per instance in
integers over the common growth denominator; a level L caps it at L. The
bands below L are the same for every level, so `layered_schedule` colours
each distinct band once across all the levels it tries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coloring import color_edges
from .core import OpsInstance, PeriodicSchedule, degrees, heat, scaled_growth


@dataclass(frozen=True)
class LayerDecomposition:
    level_count: int  # L
    layers: tuple[tuple[int, ...], ...]  # L+1 edge-index bands


def _bands(instance: OpsInstance) -> list[int]:
    """Each edge's uncapped band floor(lg(g_max/g)), from integers g * L over
    the common growth denominator L."""
    denom, scaled = scaled_growth(instance)
    top = int(instance.g_max * denom)  # raises on an edgeless instance
    # band i holds 2^i <= g_max/g < 2^(i+1), so i = floor(lg(floor(g_max/g)))
    return [(top // g).bit_length() - 1 for g in scaled]


def _split(bands: list[int], level_count: int) -> LayerDecomposition:
    layers: list[list[int]] = [[] for _ in range(level_count + 1)]
    for e, band in enumerate(bands):
        layers[min(band, level_count)].append(e)
    return LayerDecomposition(level_count, tuple(tuple(band) for band in layers))


def decompose(instance: OpsInstance, level_count: int) -> LayerDecomposition:
    """Exact partition of the edges into the L+1 geometric bands."""
    if level_count < 0:
        raise ValueError("L must be >= 0")
    return _split(_bands(instance), level_count)


@dataclass(frozen=True)
class LayeredResult:
    schedule: PeriodicSchedule
    chosen_level: int
    decomposition: LayerDecomposition
    achieved_heat: Fraction
    per_layer_bound: Fraction  # (L+1) * max_i (Delta_i + 1) * g_max / 2^i


def build_layered_schedule(instance: OpsInstance, level_count: int) -> LayeredResult:
    """Interleave the per-band coloring schedules for a fixed L."""
    return _interleave(instance, decompose(instance, level_count), {})


def _interleave(instance: OpsInstance, decomp: LayerDecomposition,
                band_days: dict[tuple[int, ...], tuple[frozenset[int], ...]]) -> LayeredResult:
    """The layered schedule of one decomposition. `band_days` maps a band to
    the days of its coloring; a band missing from it is coloured and added."""
    bands = list(decomp.layers)
    # drop trailing empty bands entirely; interior empty bands stay as no-op days
    while len(bands) > 1 and not bands[-1]:
        bands.pop()
    for band in bands:
        if band and band not in band_days:
            colors = color_edges(instance.n, tuple(instance.edges[e] for e in band))
            band_days[band] = tuple(frozenset(band[e] for e in cls) for cls in colors.classes())
    cycles = [band_days[band] if band else (frozenset(),) for band in bands]

    k = len(bands)
    period = k * math.lcm(*(len(days) for days in cycles))
    days = []
    for t in range(period):
        layer_days = cycles[t % k]
        days.append(layer_days[t // k % len(layer_days)])
    schedule = PeriodicSchedule(period, tuple(days))

    g_max = instance.g_max
    bound = Fraction(0)
    for i, band in enumerate(decomp.layers):
        if not band:
            continue
        delta = max(degrees(instance.n, (instance.edges[e] for e in band)))
        bound = max(bound, (decomp.level_count + 1) * (delta + 1) * g_max / 2**i)
    achieved = heat(instance, schedule)
    return LayeredResult(schedule, decomp.level_count, decomp, achieved, bound)


def layered_schedule(instance: OpsInstance) -> LayeredResult:
    """Try every L in [0 .. ceil(lg(Delta+1))], keep the smallest achieved heat.

    Never worse than any single suggested L; deterministic lowest-L tie-break.
    """
    delta = instance.max_degree
    top = max(0, math.ceil(math.log2(delta + 1)))
    bands = _bands(instance)
    band_days: dict[tuple[int, ...], tuple[frozenset[int], ...]] = {}
    return min((_interleave(instance, _split(bands, level), band_days)
                for level in range(top + 1)),
               key=lambda result: result.achieved_heat)


def ratio_guarantee(instance: OpsInstance) -> float:
    """The 3*lg(Delta+1) end-to-end guarantee (1.0 on a matching-only graph)."""
    delta = instance.max_degree
    return max(1.0, 3 * math.log2(delta + 1))
