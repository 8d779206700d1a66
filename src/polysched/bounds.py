"""Instance-specific lower bounds on the optimal heat, with recomputable certificates.

The strongest is the poly density: the exact optimum of the fractional
relaxation, computed from the matching-indexed LP

    max l  s.t.  sum_M y_M <= 1,   (1/g_e) sum_{M owns e} y_M >= l,  y >= 0

whose dual weights z_e certify  h* >= 1 / max_M sum_{e in M} z_e / g_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import OpsInstance
from .matchings import MatchingCapExceeded, enumerate_maximal_matchings, maximum_matching_size
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


def bamboo_bound(instance: OpsInstance) -> BoundReport:
    """Largest per-person incident growth sum; that person is the certificate."""
    best_p = None
    best = Fraction(0)
    incident = [Fraction(0)] * instance.n
    for (a, b), g in zip(instance.edges, instance.growth):
        incident[a] += g
        incident[b] += g
    for p, total in enumerate(incident):
        if total > best:
            best = total
            best_p = p
    return BoundReport("bamboo", best, best_p)


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
    sub = OpsInstance(
        instance.n,
        tuple(instance.edges[e] for e in subset),
        tuple(instance.growth[e] for e in subset),
    )
    report = inner(sub)
    return BoundReport(f"subset+{report.method}", report.value,
                       (tuple(subset), report.certificate))


def dual_value(instance: OpsInstance, weights: DualWeights) -> Fraction:
    """1 / max over maximal matchings of sum z_e / g_e: a certified lower bound.

    Raises MatchingCapExceeded beyond MATCHING_CAP edges.
    """
    matchings = enumerate_maximal_matchings(instance.n, instance.edges)
    worst = max(
        sum((weights.z[e] / instance.growth[e] for e in mm), Fraction(0))
        for mm in matchings
    )
    if worst == 0:
        raise ValueError("degenerate weights: every matching misses the support")
    return 1 / worst


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
    exactly, and the returned z recomputes the value through dual_value.
    Raises MatchingCapExceeded beyond MATCHING_CAP edges.
    """
    matchings = enumerate_maximal_matchings(instance.n, instance.edges)
    n_m = len(matchings)
    m = instance.m
    # variables: l, y_1..y_K
    c = [Fraction(1)] + [Fraction(0)] * n_m
    rows = [[Fraction(0)] + [Fraction(1)] * n_m]  # sum y <= 1
    b = [Fraction(1)]
    zero = Fraction(0)
    for e, g in enumerate(instance.growth):
        coef = -1 / g
        rows.append([Fraction(1)] + [coef if e in mm else zero for mm in matchings])
        b.append(zero)
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
    # dual feasibility, exactly
    for mm in matchings:
        if sum((z[e] / instance.growth[e] for e in mm), Fraction(0)) > x_star:
            raise RuntimeError(f"dual constraint of matching {sorted(mm)} exceeds {x_star}")
    value = 1 / x_star
    if dual_value(instance, weights) < value:
        raise RuntimeError(f"dual value of the weights is below the poly density {value}")
    primal = tuple(
        (mm, sol.x[1 + i]) for i, mm in enumerate(matchings) if sol.x[1 + i] != 0
    )
    return PolyDensityResult(value, weights, x_star, primal, ell)


def poly_density_bound(instance: OpsInstance) -> BoundReport:
    result = poly_density(instance)
    return BoundReport("polydensity", result.value, result.dual)


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
# when called, so a function replaced on this module is the one that runs
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
        return dual_value(instance, report.certificate) == report.value
    if report.method.startswith("subset+"):
        subset, inner_cert = report.certificate
        sub = OpsInstance(instance.n,
                          tuple(instance.edges[e] for e in subset),
                          tuple(instance.growth[e] for e in subset))
        inner_method = report.method.split("+", 1)[1]
        inner_report = BoundReport(inner_method, report.value, inner_cert)
        return verify_certificate(sub, inner_report)
    return False
