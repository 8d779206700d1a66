"""Instance-specific lower bounds on the optimal heat, with recomputable certificates.

The strongest is the poly density: the exact optimum of the fractional
relaxation, the matching-indexed LP

    max l  s.t.  sum_M y_M <= 1,   (1/g_e) sum_{M owns e} y_M >= l,  y >= 0

whose dual weights z_e prove  h* >= 1 / max_M sum_{e in M} z_e / g_e.
Its value has a closed form by Edmonds' matching-polytope theorem
(`poly_density_value`), and every bound method reports only values. The LP
(`poly_density`) runs only for its dual weights, the certificate that
`bound --certificate` prints, and its value is checked against the closed form.
It enumerates the maximal matchings once: the LP's columns, its
dual-feasibility check and its `dual_value` re-check share that one list,
and both checks compare integers over the common denominator of the z_e/g_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import OpsInstance, scaled_growth
from .matchings import (
    MatchingCapExceeded,
    check_matching_cap,
    enumerate_maximal_matchings,
    maximum_matching_size,
)
from .simplex import solve_max


@dataclass(frozen=True)
class DualWeights:
    z: tuple[Fraction, ...]  # per edge, >= 0, sums to 1

    def __post_init__(self):
        if any(v < 0 for v in self.z):
            raise ValueError("dual weights must be nonnegative")
        if sum(self.z, Fraction(0)) != 1:
            raise ValueError("dual weights must sum to exactly 1")


@dataclass(frozen=True)
class BoundReport:
    method: str
    value: Fraction
    certificate: object | None  # person id | edge subset | DualWeights | None

    def __str__(self):
        return f"{self.method}: {self.value}"


def trivial_bound(instance: OpsInstance) -> BoundReport:
    """max{Delta * g_min, g_max}: a degree-Delta person serializes Delta edges."""
    value = max(instance.max_degree * instance.g_min, instance.g_max)
    return BoundReport("trivial", value, None)


def _loads(instance: OpsInstance) -> tuple[int, list[int], list[int]]:
    """The common growth denominator L, every g(e) * L, and each person's
    load (its incident growth sum) times L, all integers."""
    if instance.m == 0:
        raise ValueError("instance has no edges")
    denom, scaled = scaled_growth(instance)
    load = [0] * instance.n
    for (a, b), g in zip(instance.edges, scaled):
        load[a] += g
        load[b] += g
    return denom, scaled, load


def _restrict(instance: OpsInstance, subset) -> OpsInstance:
    """The sub-instance of the edges indexed by `subset`, on the same persons."""
    return OpsInstance(instance.n,
                       tuple(instance.edges[e] for e in subset),
                       tuple(instance.growth[e] for e in subset))


def bamboo_bound(instance: OpsInstance) -> BoundReport:
    """Largest per-person load; the first person carrying it is the certificate."""
    denom, _, load = _loads(instance)
    top = max(load)
    return BoundReport("bamboo", Fraction(top, denom), load.index(top))


def total_growth_bound(instance: OpsInstance) -> BoundReport:
    """G / m for G the total growth and m the maximum matching size."""
    m_size = maximum_matching_size(instance.n, instance.edges)
    if m_size == 0:
        raise ValueError("instance has no edges")
    return BoundReport("mass", instance.total_growth / m_size, None)


def subset_bound(instance: OpsInstance, subset, inner) -> BoundReport:
    """Apply a bound to the edge-subset sub-instance; still valid for the whole.

    `subset` is an iterable of edge indices, `inner` a bound function.
    """
    subset = sorted(set(subset))
    if any(not 0 <= e < instance.m for e in subset):
        raise ValueError("subset contains invalid edge indices")
    report = inner(_restrict(instance, subset))
    return BoundReport(f"subset+{report.method}", report.value,
                       (tuple(subset), report.certificate))


def dual_value(instance: OpsInstance, weights: DualWeights, *, _matchings=None) -> Fraction:
    """1 / max over maximal matchings of sum z_e / g_e: a certified lower bound.

    The sums are compared as integers over the common denominator D of the
    z_e / g_e. `_matchings` is the instance's maximal matchings when the
    caller has already enumerated them. Raises MatchingCapExceeded beyond
    MATCHING_CAP edges.
    """
    if _matchings is None:
        _matchings = enumerate_maximal_matchings(instance.n, instance.edges)
    ratios = [weights.z[e] / g for e, g in enumerate(instance.growth)]
    denom = math.lcm(*(q.denominator for q in ratios))
    scaled = [q.numerator * (denom // q.denominator) for q in ratios]
    sums = [sum(map(scaled.__getitem__, mm)) for mm in _matchings]
    worst = max(sums)
    if worst == 0:
        raise ValueError("degenerate weights: every matching misses the support")
    return Fraction(denom, worst)


def poly_density_value(instance: OpsInstance) -> Fraction:
    """The poly density in closed form, with no LP.

    The LP's optimum l* is the largest l with l*g in the matching polytope,
    which Edmonds' theorem (J. Res. NBS 69B, 1965) describes by its person
    and odd-set constraints; so the poly density 1/l* is the larger of the
    largest person load (the bamboo value) and the largest
    g(E[S]) / floor(|S|/2) over odd person sets S with |S| >= 3.

    Only connected odd S of minimum internal degree >= 2 can exceed the
    largest load, so the search grows connected sets inside the 2-core:
    - a disconnected odd S is never better than its best odd part or the
      largest load, by the mediant inequality, since an even part C has
      g(E[C]) <= (|C|/2) * max load;
    - if v in S has a single neighbour u in S, then
      ratio(S) <= max(ratio(S - {u, v}), load(u)), since removing u and v
      removes at most load(u) of growth and one from floor(|S|/2).
    Sums are integers over the common growth denominator. Raises
    MatchingCapExceeded beyond MATCHING_CAP edges, like the LP.
    """
    check_matching_cap(instance.m)
    denom, scaled, load = _loads(instance)
    n = instance.n
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), g in zip(instance.edges, scaled):
        neighbours[a][b] = g
        neighbours[b][a] = g

    # the 2-core: peel persons of degree <= 1 until none is left
    degree = [len(nb) for nb in neighbours]
    peeled = [False] * n
    stack = [p for p in range(n) if degree[p] <= 1]  # each person enters once
    while stack:
        p = stack.pop()
        peeled[p] = True
        for q in neighbours[p]:
            degree[q] -= 1
            if degree[q] == 1:
                stack.append(q)
    core = [p for p in range(n) if not peeled[p]]
    bit = {p: i for i, p in enumerate(core)}
    # per core person: its core neighbours as a bitmask, and (bit, growth) pairs
    mask = [sum(1 << bit[q] for q in neighbours[p] if q in bit) for p in core]
    weighted = [[(bit[q], g) for q, g in neighbours[p].items() if q in bit] for p in core]

    best_num, best_den = max(load), 1

    def grow(members: int, size: int, weight: int, frontier: int, banned: int) -> None:
        # every connected set holding `members` and no banned person, once each
        nonlocal best_num, best_den
        if size & 1 and size > 1 and weight * best_den > best_num * (size >> 1):
            best_num, best_den = weight, size >> 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            banned |= low
            v = low.bit_length() - 1
            gain = sum(g for u, g in weighted[v] if members >> u & 1)
            grow(members | low, size + 1, weight + gain,
                 (frontier | mask[v]) & ~banned, banned)

    for r in range(len(core)):
        root = 1 << r
        banned = (root << 1) - 1  # the root and every lower person
        grow(root, 1, 0, mask[r] & ~banned, banned)
    return Fraction(best_num, best_den * denom)


@dataclass(frozen=True)
class PolyDensityResult:
    value: Fraction  # 1/x*, the poly density
    dual: DualWeights  # optimizing z
    dual_objective: Fraction  # x*
    primal: tuple[tuple[frozenset[int], Fraction], ...]  # matching weights y_M
    primal_objective: Fraction  # l*, equals x* exactly


def poly_density(instance: OpsInstance) -> PolyDensityResult:
    """Exact optimum of the fractional relaxation over enumerated maximal matchings.

    Solves the primal LP with an exact rational simplex and reads the dual
    weights off the slack columns; strong duality (l* = x*) is checked
    exactly, the returned z recomputes the value through dual_value, and
    the value must equal poly_density_value, computed independently.
    Raises MatchingCapExceeded beyond MATCHING_CAP edges.
    """
    closed_form = poly_density_value(instance)
    matchings = enumerate_maximal_matchings(instance.n, instance.edges)
    n_m = len(matchings)
    m = instance.m
    # variables: l, y_1..y_K; rows: sum y <= 1, then l - sum_{M owns e} y_M / g_e <= 0
    c = [1] + [0] * n_m
    rows = [[0] + [1] * n_m] + [[1] + [0] * n_m for _ in range(m)]
    b = [1] + [0] * m
    coef = [-1 / g for g in instance.growth]
    for k, mm in enumerate(matchings, start=1):
        for e in mm:
            rows[1 + e][k] = coef[e]
    sol = solve_max(c, rows, b)

    ell = sol.objective
    x_star = sol.duals[0]
    z = tuple(sol.duals[1 + e] for e in range(m))
    if ell != x_star:
        raise RuntimeError(f"strong duality fails: primal {ell} != dual {x_star}")
    if any(v < 0 for v in z):
        raise RuntimeError(f"dual weights are not feasible: negative entry in {z}")
    # any optimal dual has unit mass: scaling a heavier z down would be
    # feasible and strictly cheaper
    if sum(z, Fraction(0)) != 1:
        raise RuntimeError(f"dual weights do not sum to 1: {z}")
    weights = DualWeights(z)
    value = 1 / x_star
    # dual feasibility, exactly: every matching's sum of z_e/g_e is at most
    # x*, that is, the largest sum's dual value D/max is at least 1/x*
    if dual_value(instance, weights, _matchings=matchings) < value:
        raise RuntimeError(f"dual value of the weights is below the poly density {value}")
    if value != closed_form:
        raise RuntimeError(f"LP value {value} differs from the closed form {closed_form}")
    primal = tuple(
        (mm, sol.x[1 + i]) for i, mm in enumerate(matchings) if sol.x[1 + i] != 0
    )
    return PolyDensityResult(value, weights, x_star, primal, ell)


def poly_density_bound(instance: OpsInstance) -> BoundReport:
    """The poly density in closed form; `poly_density` gives its LP dual weights."""
    return BoundReport("polydensity", poly_density_value(instance), None)


def best_bound(instance: OpsInstance) -> BoundReport:
    """Max of trivial, bamboo, total-growth and poly density; poly density is
    left out beyond MATCHING_CAP edges."""
    reports = [trivial_bound(instance), bamboo_bound(instance),
               total_growth_bound(instance)]
    try:
        reports.append(poly_density_bound(instance))
    except MatchingCapExceeded:
        pass
    return max(reports, key=lambda r: (r.value, r.method))


# `--method` name -> bound of an instance; each entry looks its function up
# when called, so a function replaced on this module is the one that runs.
# every entry reports a value and solves no LP; `poly_density` alone does
METHODS = {
    "trivial": lambda instance: trivial_bound(instance),
    "bamboo": lambda instance: bamboo_bound(instance),
    "mass": lambda instance: total_growth_bound(instance),
    "polydensity": lambda instance: poly_density_bound(instance),
    "best": lambda instance: best_bound(instance),
}


def growth_proportional_weights(instance: OpsInstance) -> DualWeights:
    """z_e = g_e / G; its dual value collapses to the total-growth bound G/m."""
    g_total = instance.total_growth
    return DualWeights(tuple(g / g_total for g in instance.growth))


def verify_certificate(instance: OpsInstance, report: BoundReport) -> bool:
    """Recompute the claimed value from the certificate."""
    if report.method == "trivial":
        return report.value == trivial_bound(instance).value
    if report.method == "bamboo":
        p = report.certificate
        total = sum((g for (a, b), g in zip(instance.edges, instance.growth)
                     if p in (a, b)), Fraction(0))
        return total == report.value
    if report.method == "mass":
        return report.value == total_growth_bound(instance).value
    if report.method == "polydensity":
        if report.certificate is None:
            return report.value == poly_density_value(instance)
        return dual_value(instance, report.certificate) == report.value
    if report.method.startswith("subset+"):
        subset, inner_cert = report.certificate
        inner_method = report.method.split("+", 1)[1]
        inner_report = BoundReport(inner_method, report.value, inner_cert)
        return verify_certificate(_restrict(instance, subset), inner_report)
    return False
