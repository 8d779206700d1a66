"""Experiment runner: schedule algorithms against lower bounds, as a table."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from .coloring import round_robin_schedule
from .core import OpsInstance, PeriodicSchedule, heat
from .exact import FEASIBLE, OptimalHeatResult, ops_optimal_heat
from .fileio import format_rational
from .layering import layered_schedule

# growth rates of a random instance are integers drawn from 1.._MAX_GROWTH
_MAX_GROWTH = 6


@dataclass
class RunReport:
    instance: str
    algorithm: str
    achieved: Fraction | None
    bound: Fraction | None
    bound_method: str
    ratio: Fraction | None
    verdict: str
    wall_time: float
    schedule: PeriodicSchedule | None = None

    def row(self, with_time: bool = False) -> list[str]:
        cells = [
            self.instance,
            self.algorithm,
            format_rational(self.achieved) if self.achieved is not None else "-",
            format_rational(self.bound) if self.bound is not None else "-",
            self.bound_method,
            format_rational(self.ratio) if self.ratio is not None else "-",
            self.verdict,
        ]
        if with_time:
            cells.append(f"{self.wall_time:.3f}")
        return cells


HEADER = ["instance", "algorithm", "heat", "bound", "method", "ratio", "verdict"]


def run_one(name: str, instance: OpsInstance, algorithm: str,
            bound_method: str = "best") -> RunReport:
    """Run one schedule algorithm (exact, coloring or layering) and one bound
    method on the instance; the verdict of layering names its chosen L."""
    t0 = time.perf_counter()
    achieved: Fraction | None = None
    schedule = None
    verdict = "ok"
    if algorithm == "exact":
        result: OptimalHeatResult = ops_optimal_heat(instance)
        if result.status == FEASIBLE:
            achieved = result.heat
            schedule = result.schedule
        else:
            verdict = "inconclusive"
    elif algorithm == "coloring":
        schedule = round_robin_schedule(instance)
        achieved = heat(instance, schedule)
    elif algorithm == "layering":
        layered = layered_schedule(instance)
        schedule = layered.schedule
        achieved = layered.achieved_heat
        verdict = f"L={layered.chosen_level}"
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if bound_method not in bounds_mod.METHODS:
        raise ValueError(f"unknown bound method {bound_method!r}")
    report = bounds_mod.METHODS[bound_method](instance)
    ratio = None
    if achieved is not None and report.value > 0:
        ratio = achieved / report.value
    return RunReport(name, algorithm, achieved, report.value,
                     report.method, ratio, verdict,
                     time.perf_counter() - t0, schedule)


def run_suite(instances: list[tuple[str, OpsInstance]], algorithms: list[str],
              bound_methods: list[str]) -> list[RunReport]:
    """Deterministic table: one row per instance x algorithm x bound method,
    in input order regardless of execution order."""
    return [
        run_one(name, inst, algo, bound)
        for name, inst in instances
        for algo in algorithms
        for bound in bound_methods
    ]


def random_ops_instance(rng: random.Random, max_persons: int = 7,
                        max_edges: int = 10) -> OpsInstance:
    """Small connected-ish instance with integer growth rates; exact-solver friendly."""
    n = rng.randint(2, max_persons)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(1, min(len(pool), max_edges))
    edges = tuple(sorted(rng.sample(pool, m)))
    growth = tuple(Fraction(rng.randint(1, _MAX_GROWTH)) for _ in edges)
    return OpsInstance(n, edges, growth)


def seeded_suite(seed: int, count: int, **kwargs) -> list[tuple[str, OpsInstance]]:
    rng = random.Random(seed)
    return [(f"rand-{seed}-{i}", random_ops_instance(rng, **kwargs))
            for i in range(count)]


def format_table(reports: list[RunReport], fmt: str = "text",
                 with_time: bool = False) -> str:
    header = HEADER + (["time_s"] if with_time else [])
    rows = [r.row(with_time) for r in reports]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
