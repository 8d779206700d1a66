"""Span recorder for the traced run, and the per-layer metrics computed from it.

The program imports functions by name (`polysched.cli.ops_optimal_heat`,
`polysched.exact.enumerate_maximal_matchings`, ...), so a function is
wrapped in every loaded `polysched` module that holds it, not only where it
is defined. Each call records a span: name, start, end, parent span, op id,
and a small summary of its arguments or result. Spans stay in memory until
the run ends. Counts come only from values the program already returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> (module, function, summary of (args, result) or None)
TRACED = {
    "exact": [
        ("polysched.exact", "ops_optimal_heat",
         lambda a, r: (a[0], list(r.probes))),
        ("polysched.exact", "dps_feasible", lambda a, r: (r.status, r.explored)),
    ],
    "matchings": [
        ("polysched.matchings", "enumerate_maximal_matchings",
         lambda a, r: (tuple(a[1]), len(r))),
        ("polysched.matchings", "maximum_matching_size", None),
    ],
    "simplex": [
        ("polysched.simplex", "solve_max", lambda a, r: (r.pivots, len(a[1]) * len(a[0]))),
    ],
    "bounds": [
        ("polysched.bounds", name, None) for name in (
            "trivial_bound", "bamboo_bound", "total_growth_bound", "dual_value",
            "poly_density", "poly_density_bound", "verify_certificate")
    ] + [
        ("polysched.bounds", "best_bound", lambda a, r: (a[0].n, a[0].edges, a[0].growth)),
    ],
    "coloring": [
        ("polysched.coloring", name, None)
        for name in ("color_edges", "round_robin_schedule", "trivial_vs_ratio_bound")
    ],
    "layering": [
        ("polysched.layering", name, None)
        for name in ("layered_schedule", "build_layered_schedule", "decompose", "ratio_guarantee")
    ],
    "core": [
        ("polysched.core", "verify_dps", lambda a, r: a[0].m * a[1].period),
        ("polysched.core", "heat", None),
    ],
    "fileio": [
        ("polysched.fileio", "parse_instance", lambda a, r: len(a[0])),
        ("polysched.fileio", "parse_schedule", lambda a, r: len(a[1])),
        ("polysched.fileio", "emit_instance", lambda a, r: len(r)),
        ("polysched.fileio", "emit_schedule", lambda a, r: len(r)),
    ],
    "satred": [
        ("polysched.satred.build", "compile_formula", None),
        ("polysched.satred.synth", "synthesize_schedule", None),
        ("polysched.satred.synth", "extract_assignment", None),
        ("polysched.satred.tiling", "solve_first", None),
        ("polysched.satred.cnf", "parse_dimacs", None),
    ],
}


# metrics that are already ratios; the rest are totals, reported per pass
RATIOS = {"exact.states_per_s.infeasible", "satred.compile.per_chain", "core.verify.per_chain"}


class Recorder:
    """Spans of one traced run, in call order; index 0.. per span."""

    def __init__(self):
        self.active = False
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.error: list[str | None] = []
        self.info: list[object] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.error.append(None)
        self.info.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.error[idx] = error

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one command."""
        self._op = op_id
        return self.open("cli.main")

    def _wrap(self, name: str, fn, summary):
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(idx, type(exc).__name__)
                raise
            rec.close(idx)
            if summary is not None:
                rec.info[idx] = summary(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every polysched module holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "polysched" or n.startswith("polysched.")]
        for layer, targets in TRACED.items():
            for mod_name, fn_name, summary in targets:
                fn = getattr(importlib.import_module(mod_name), fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", fn, summary)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._originals.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, name in enumerate(self.name):
                out.write(json.dumps([i, name, self.op[i], self.parent[i],
                                      self.start[i], self.end[i], self.error[i]]) + "\n")


def layer_metrics(rec: Recorder, chain_of, best_bound_value) -> dict[str, float]:
    """Per-layer totals over all recorded spans.

    chain_of(op_id) names the reduce round-trip chain an executed op belongs
    to, or None; best_bound_value(instance) gives the certified bound used to
    classify exact-solver probes.
    """
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child[rec.parent[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    layer = [name.split(".", 1)[0] for name in rec.name]

    def spans(name):
        return [i for i in range(n) if rec.name[i] == name]

    def total(name):
        return sum(dur[i] for i in spans(name))

    def outermost(name):
        """The layer's spans whose parent is in another layer."""
        return [i for i in range(n) if layer[i] == name
                and (rec.parent[i] < 0 or layer[rec.parent[i]] != name)]

    def layer_busy(name):
        return sum(dur[i] for i in outermost(name))

    def layer_self(name):
        return sum(self_t[i] for i in range(n) if layer[i] == name)

    m = defaultdict(float)
    feasible = spans("exact.dps_feasible")
    for i in feasible:
        status, explored = rec.info[i]  # feasible | infeasible | inconclusive
        if status == "inconclusive":
            m["exact.inconclusive"] += 1
            continue
        m[f"exact.states.{status}"] += explored
        m[f"exact.self_s.{status}"] += self_t[i]
    for i in spans("exact.ops_optimal_heat"):
        instance, heats = rec.info[i]
        m["exact.probes"] += len(heats)
        probes = [j for j in feasible if rec.parent[j] == i]
        bound = best_bound_value(instance)
        for h, j in zip(heats, probes):
            status, explored = rec.info[j]
            if status == "infeasible":
                m["exact.probes.infeasible"] += 1
            if h < bound:
                m["exact.states.below_bound"] += explored
    m["exact.states_per_s.infeasible"] = (
        m["exact.states.infeasible"] / m["exact.self_s.infeasible"]
        if m["exact.self_s.infeasible"] else 0.0)

    seen_edges: dict[int, set] = defaultdict(set)
    for i in spans("matchings.enumerate_maximal_matchings"):
        edges, count = rec.info[i]
        m["matchings.calls"] += 1
        m["matchings.enumerated"] += count
        if edges in seen_edges[rec.op[i]]:
            m["matchings.repeat_calls"] += 1
        seen_edges[rec.op[i]].add(edges)
    m["matchings.busy_s"] = layer_busy("matchings")

    for i in spans("simplex.solve_max"):
        pivots, cells = rec.info[i]
        m["simplex.calls"] += 1
        m["simplex.pivots"] += pivots
        m["simplex.cells"] += cells
    m["simplex.busy_s"] = layer_busy("simplex")

    m["bounds.calls"] = len(outermost("bounds"))
    m["bounds.self_s"] = layer_self("bounds")
    seen_inst: dict[int, set] = defaultdict(set)
    for i in spans("bounds.best_bound"):
        if rec.info[i] in seen_inst[rec.op[i]]:
            m["bounds.repeat_calls"] += 1
        seen_inst[rec.op[i]].add(rec.info[i])

    m["coloring.calls"] = len(spans("coloring.color_edges"))
    m["coloring.busy_s"] = layer_busy("coloring")
    m["layering.calls"] = len(spans("layering.layered_schedule"))
    m["layering.self_s"] = layer_self("layering")

    verify = spans("core.verify_dps")
    m["core.verify.calls"] = len(verify)
    m["core.verify.busy_s"] = total("core.verify_dps")
    m["core.verify.edge_days"] = sum(rec.info[i] for i in verify)
    m["core.heat.calls"] = len(spans("core.heat"))
    m["core.heat.busy_s"] = total("core.heat")

    io_spans = [i for i in range(n) if layer[i] == "fileio"]
    m["fileio.calls"] = len(io_spans)
    m["fileio.busy_s"] = layer_busy("fileio")
    m["fileio.bytes"] = sum(rec.info[i] for i in io_spans)

    compiles = spans("satred.compile_formula")
    m["satred.compile.calls"] = len(compiles)
    m["satred.compile.busy_s"] = total("satred.compile_formula")
    synth = spans("satred.synthesize_schedule")
    m["satred.synth.self_s"] = sum(self_t[i] for i in synth)
    m["satred.synth.refused"] = sum(1 for i in synth if rec.error[i] == "SynthesisRefused")
    m["satred.extract.self_s"] = sum(self_t[i] for i in spans("satred.extract_assignment"))
    m["satred.tiling.busy_s"] = total("satred.solve_first")

    # a chain is one assignment's synth -> verify -> extract, when not refused
    op_chain = {op: chain_of(op) for op in set(rec.op)}
    refused = {op_chain[rec.op[i]] for i in synth if rec.error[i] == "SynthesisRefused"}
    chains = {c for c in op_chain.values() if c is not None and c not in refused}
    in_chain = [op_chain[rec.op[i]] in chains for i in range(n)]
    m["satred.chains"] = len(chains)
    if chains:
        m["satred.compile.per_chain"] = sum(in_chain[i] for i in compiles) / len(chains)
        m["core.verify.per_chain"] = sum(in_chain[i] for i in verify) / len(chains)
    m["cli.self_s"] = sum(self_t[i] for i in spans("cli.main"))
    return dict(m)
