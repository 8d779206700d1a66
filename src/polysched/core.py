"""Instance and schedule data model: heat, recurrence, verification, conversions.

Persons are dense integer ids 0..n-1. An edge is a pair (a, b) with a < b.
Growth rates and heats are exact rationals (`fractions.Fraction`); floats are
rejected so that optimality statements like ``h < 160`` are exact.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

UNBOUNDED = math.inf
"""Heat / recurrence value of a schedule that never meets some edge.

A distinct value rather than an error: a schedule omitting an edge is
representable and diagnosable. Compares correctly against any Fraction.
"""


def as_rational(value) -> Fraction:
    """Convert to an exact Fraction. Rejects floats.

    Accepts ints, Fractions, and strings ("3", "0.25", "7/6", "1e-3");
    decimal strings are parsed exactly, with a decimal exponent of at most
    `sys.get_int_max_str_digits()` (4300 by default) either way.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, float):
        raise TypeError(
            "float growth/heat values are rejected; pass an int, Fraction, "
            "or decimal string for exact arithmetic"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_text(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# Fraction expands a decimal exponent exactly, so "1e999999999" would take
# hours; an exponent is refused beyond the digit limit Python puts on reading
# an int, which already refuses a longer integer token
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rational_from_text(text: str) -> Fraction:
    """`Fraction(text)`, refusing a decimal exponent beyond
    `sys.get_int_max_str_digits()` (4300 by default) either way."""
    if "e" in text or "E" in text:
        exponent = _EXPONENT.search(text)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent of {text!r} exceeds {limit}")
    return Fraction(text)


def degrees(n: int, edges) -> list[int]:
    """Number of edges at each person 0..n-1."""
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


class InstanceError(ValueError):
    """An instance the constructors refuse; `edge` is the index of the first
    bad edge, or None when the fault is not in one edge."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


def normalize_edge(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise InstanceError(f"self-loop on person {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class _Instance:
    """Persons 0..n-1 and a simple graph of relationship edges (a, b), a < b."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InstanceError(f"person count {self.n} is negative")
        raw = tuple(self.edges)
        try:
            # an edge given as an ordered pair tuple is kept, not rebuilt
            edges = tuple([e if a < b and type(e) is tuple else normalize_edge(a, b)
                           for e in raw for a, b in [e]])
        except InstanceError as exc:  # a self-loop, the first in edge order
            raise InstanceError(str(exc), [a == b for a, b in raw].index(True)) from None
        object.__setattr__(self, "edges", edges)
        # checked in bulk (a < b holds now); the ordered loop only names the
        # first edge out of range or repeated
        if edges and (min(edges)[0] < 0 or max(map(itemgetter(1), edges)) >= self.n
                      or len(set(edges)) != len(edges)):
            seen: set[tuple[int, int]] = set()
            for i, (a, b) in enumerate(edges):
                if not (0 <= a < b < self.n):
                    raise InstanceError(f"edge ({a},{b}) out of range for {self.n} persons", i)
                if (a, b) in seen:
                    raise InstanceError(f"duplicate edge ({a},{b}); graph must be simple", i)
                seen.add((a, b))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return degrees(self.n, self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}


@dataclass(frozen=True)
class OpsInstance(_Instance):
    """Optimisation instance: persons, relationship edges, growth rate per edge."""

    growth: tuple[Fraction, ...]

    def __post_init__(self):
        super().__post_init__()
        growth = tuple(self.growth)
        if not set(map(type, growth)) <= {Fraction}:
            growth = tuple(map(as_rational, growth))
        object.__setattr__(self, "growth", growth)
        if len(growth) != len(self.edges):
            raise InstanceError("need exactly one growth rate per edge")
        bad = next((i for i, g in enumerate(growth) if g <= 0), None)
        if bad is not None:
            raise InstanceError("growth rates must be strictly positive", bad)

    @property
    def g_min(self) -> Fraction:
        return min(self._rates())

    @property
    def g_max(self) -> Fraction:
        return max(self._rates())

    def _rates(self) -> tuple[Fraction, ...]:
        if not self.growth:
            raise ValueError("instance has no edges")
        return self.growth

    @property
    def total_growth(self) -> Fraction:
        return sum(self.growth, Fraction(0))


@dataclass(frozen=True)
class DpsInstance(_Instance):
    """Decision instance: persons, relationship edges, integer frequency per edge."""

    freq: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "freq", tuple(self.freq))
        if len(self.freq) != len(self.edges):
            raise InstanceError("need exactly one frequency per edge")
        # checked in bulk; the exact rule, which also accepts subclasses of
        # int, runs only when the bulk check fails, and names the first bad one
        if self.freq and (not set(map(type, self.freq)) <= {int} or min(self.freq) < 1):
            for i, f in enumerate(self.freq):
                if not isinstance(f, int) or isinstance(f, bool) or f < 1:
                    raise InstanceError("frequencies must be integers >= 1", i)

    @property
    def max_freq(self) -> int:
        return max(self.freq)


@dataclass(frozen=True)
class PeriodicSchedule:
    """A period T and, for each day 0..T-1, a set of edge indices; cyclic."""

    period: int
    days: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "days", tuple(frozenset(d) for d in self.days))
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.days) != self.period:
            raise ValueError("need exactly one edge set per day")

    def occurrences(self, e: int) -> list[int]:
        return [t for t, day in enumerate(self.days) if e in day]

    def occurrence_lists(self, n_edges: int) -> list[list[int]]:
        """`occurrences(e)` for every edge 0..n_edges-1, in one pass over the days.

        Every edge index on a day must be below n_edges (see `check_structure`).
        """
        lists: list[list[int]] = [[] for _ in range(n_edges)]
        for t, day in enumerate(self.days):
            for e in day:
                lists[e].append(t)
        return lists

    def recurrence_times(self, n_edges: int) -> list:
        """`recurrence_time(self, e)` for every edge 0..n_edges-1, in one sweep.

        The sweep runs over two unrolled periods. The first only records each
        edge's last day, so every meeting of the second has its cyclic
        predecessor at hand. Every edge index on a day must be below n_edges
        (see `check_structure`).
        """
        last = [0] * n_edges
        for t, day in enumerate(self.days):
            for e in day:
                last[e] = t
        gap = [0] * n_edges  # stays 0 only for an edge that never meets
        for t, day in enumerate(self.days, start=self.period):
            for e in day:
                g = t - last[e]
                if g > gap[e]:
                    gap[e] = g
                last[e] = t
        return [g or UNBOUNDED for g in gap]


@dataclass(frozen=True)
class Violation:
    """First witness of why a schedule does not satisfy a decision instance."""

    kind: str  # "bad-edge-index" | "not-a-matching" | "never-scheduled" | "gap-too-large"
    day: int | None = None
    edge: int | None = None
    detail: str = ""

    def __str__(self):
        where = []
        if self.day is not None:
            where.append(f"day {self.day}")
        if self.edge is not None:
            where.append(f"edge {self.edge}")
        loc = " at " + ", ".join(where) if where else ""
        return f"{self.kind}{loc}: {self.detail}" if self.detail else f"{self.kind}{loc}"


def check_structure(n_edges: int, schedule: PeriodicSchedule) -> Violation | None:
    """Structural validity: every referenced edge index exists."""
    for t, day in enumerate(schedule.days):
        for e in day:
            if not (0 <= e < n_edges):
                return Violation("bad-edge-index", day=t, edge=e)
    return None


def matching_violation(edges, schedule: PeriodicSchedule) -> Violation | None:
    """First day whose edge set is not a matching, if any."""
    firsts = tuple(map(itemgetter(0), edges))
    seconds = tuple(map(itemgetter(1), edges))
    for t, day in enumerate(schedule.days):
        # a day of two or more edges passes in one step when its endpoints
        # repeat no person; any other day is scanned in edge order, so a
        # failing day names its first conflicting edge
        if len(day) > 1:
            ends = itemgetter(*day)
            if len(set(ends(firsts) + ends(seconds))) == 2 * len(day):
                continue
        used: set[int] = set()
        for e in sorted(day):
            a, b = edges[e]
            if a in used or b in used:
                return Violation("not-a-matching", day=t, edge=e,
                                 detail=f"person conflict on edge {edges[e]}")
            used.add(a)
            used.add(b)
    return None


def recurrence_time(schedule: PeriodicSchedule, e: int):
    """Maximal time between consecutive occurrences of edge e, cyclically.

    Returns UNBOUNDED if e never occurs; 1 if it occurs every day. The max
    gap over the infinite unrolling equals the max cyclic gap over one
    period (wrapping the period boundary).
    """
    occ = schedule.occurrences(e)
    if not occ:
        return UNBOUNDED
    gaps = [occ[i + 1] - occ[i] for i in range(len(occ) - 1)]
    gaps.append(occ[0] + schedule.period - occ[-1])
    return max(gaps)


def scaled_growth(instance: OpsInstance) -> tuple[int, list[int]]:
    """The common denominator L of the growth rates, and every g(e) * L (an integer)."""
    denom = math.lcm(*{g.denominator for g in instance.growth})
    return denom, [g.numerator * (denom // g.denominator) for g in instance.growth]


def heat(instance: OpsInstance, schedule: PeriodicSchedule):
    """max over edges of g(e) * recurrence_time(e); UNBOUNDED if an edge never occurs."""
    bad = check_structure(instance.m, schedule)
    if bad is not None:
        raise ValueError(f"schedule does not match instance: {bad}")
    times = schedule.recurrence_times(instance.m)
    if UNBOUNDED in times:
        return UNBOUNDED
    # g(e) * r(e) compared as integers over the common denominator
    denom, scaled = scaled_growth(instance)
    return Fraction(max(map(mul, scaled, times), default=0), denom)


def verify_dps(instance: DpsInstance, schedule: PeriodicSchedule) -> Violation | None:
    """None iff every day is a matching and every edge recurs within f(e) days.

    Cyclic reading: the schedule is judged on its infinite unrolling, so the
    requirement is "e occurs at least once and its max cyclic gap <= f(e)".
    """
    bad = check_structure(instance.m, schedule)
    if bad is not None:
        return bad
    bad = matching_violation(instance.edges, schedule)
    if bad is not None:
        return bad
    for e, (r, f) in enumerate(zip(schedule.recurrence_times(instance.m), instance.freq)):
        if r is UNBOUNDED:
            return Violation("never-scheduled", edge=e,
                             detail=f"edge {instance.edges[e]} never occurs")
        if r > f:
            return Violation("gap-too-large", edge=e,
                             detail=f"edge {instance.edges[e]} recurs every {r} > f={f}")
    return None


def ops_to_dps(instance: OpsInstance, h) -> DpsInstance:
    """Frequencies f(e) = floor(h / g(e)); any feasible schedule has heat <= h.

    Requires h >= g_max, else some f(e) would be 0.
    """
    h = as_rational(h)
    num, den = h.numerator, h.denominator
    freqs = tuple(num * g.denominator // (den * g.numerator) for g in instance.growth)
    if min(freqs) < 1:
        raise ValueError("heat below max growth rate")
    return DpsInstance(instance.n, instance.edges, freqs)


def dps_to_ops(instance: DpsInstance) -> OpsInstance:
    """Growth rates g(e) = 1/f(e), exactly."""
    return OpsInstance(instance.n, instance.edges,
                       tuple(Fraction(1, f) for f in instance.freq))


def normalize(instance: OpsInstance, optimal_schedule: PeriodicSchedule) -> OpsInstance:
    """Unit-fraction growth rates g'(e) = 1/r(e); heat of the given schedule becomes exactly 1."""
    bad = check_structure(instance.m, optimal_schedule)
    if bad is not None:
        raise ValueError(f"schedule does not match instance: {bad}")
    times = optimal_schedule.recurrence_times(instance.m)
    if UNBOUNDED in times:
        raise ValueError("schedule has unbounded heat; cannot normalize")
    return OpsInstance(instance.n, instance.edges, tuple(Fraction(1, r) for r in times))
