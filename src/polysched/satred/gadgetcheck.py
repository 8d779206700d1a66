"""Exhaustive local verification of every gadget's scheduling behaviour.

Each gadget is modelled in isolation: its persons, its internal edges, and
its boundary half-edges (external endpoints are fresh unconstrained
persons). Color-pinned edges are restricted to their slot classes, scenario
inputs are pinned per case, and all remaining phases are enumerated over
the 36-day cycle. Every person of these gadgets that carries the full load
has inverse frequencies summing to 1, so exact per-edge periodicity loses
no schedules and phase enumeration covers all slot-respecting local
schedules. The checks assert exactly the characterizations the reduction
relies on (e.g. a tension person forces all four 12-day edges blue; an AND
output can be blue only when both inputs are).

As in the paper, the Swap model is built from the parts that are checked on
their own: two D12 duplicators, one per input, whose copies feed an Or2 half
and an And2 half.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .build import comparator
from .tiling import class_phases, phase_color, solve

GADGET_KINDS = (
    "Variable", "D3", "D6", "D12", "OR", "Or2", "And2",
    "SB6", "SB12", "SG12", "Swap", "Tension",
)

# most local schedules one gadget model may enumerate before the check gives up
_ENUMERATION_BUDGET = 2_000_000


@dataclass
class ScenarioResult:
    name: str
    solutions: int
    ok: bool
    detail: str


@dataclass
class GadgetVerdict:
    kind: str
    scenarios: list[ScenarioResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)


class _Model:
    """Edge list builder for an isolated gadget."""

    def __init__(self):
        self.edges: list[tuple[str, object, object, int, tuple[int, ...]]] = []
        self._ext = 0

    def edge(self, name: str, a: object, b: object | None, freq: int,
             color: str | None = None) -> None:
        """Edge a-b (b None: a fresh person) whose phases keep to the colour
        class, or take every phase when color is None."""
        if b is None:
            self._ext += 1
            b = f"_ext{self._ext}"
        self.edges.append((name, a, b, freq, class_phases(freq, color)))

    def enumerate(self):
        """Every local schedule, as edge name -> slot colour (None off every class)."""
        out = []
        idle = {p: 0 for _, a, b, _, _ in self.edges for p in (a, b)}
        for sol in solve(self.edges, idle):
            out.append({name: phase_color(freq, sol[name])
                        for name, _, _, freq, _ in self.edges})
            if len(out) > _ENUMERATION_BUDGET:
                raise RuntimeError("gadget enumeration exceeded its budget")
        return out


def _colors(solutions, name):
    return {sol[name] for sol in solutions}


def _check(cond: bool, msg: str) -> str | None:
    return None if cond else msg


def _forced(names, want: str):
    """Predicate: every named edge takes exactly the colour set {want}."""
    def check(sols):
        for nm in names:
            if _colors(sols, nm) != {want}:
                return f"{nm} colors {_colors(sols, nm)} != {want}"
        return None
    return check


def _scenario(name, model, predicates) -> ScenarioResult:
    sols = model.enumerate()
    problems = []
    if not sols:
        problems.append("no slot-respecting schedule exists")
    else:
        for pred in predicates:
            msg = pred(sols)
            if msg:
                problems.append(msg)
    return ScenarioResult(name, len(sols), not problems, "; ".join(problems))


# -- individual gadgets -------------------------------------------------------


def _variable_scenarios():
    model = _Model()
    model.edge("valR", "x", None, 3)
    model.edge("valB", "x", None, 3)
    model.edge("g6", "x", None, 6, "G")
    model.edge("p6", "x", None, 6, "P")

    def both_orders(sols):
        forms = {(sol["valR"], sol["valB"]) for sol in sols}
        return _check(forms == {("R", "B"), ("B", "R")},
                      f"value edges must split red/blue both ways, got {forms}")

    yield "free", model, [both_orders]


def _d3_scenarios():
    for case, in_color in (("red-input", "R"), ("blue-input", "B")):
        model = _Model()
        nine_color = "B" if in_color == "R" else "R"
        model.edge("in", "a", None, 3, in_color)
        model.edge("g6_in", "a", None, 6, "G")
        model.edge("p6_out", "a", None, 6, "P")
        for j in range(3):
            model.edge(f"nine{j}", "a", f"n{j}", 9)
        model.edge("p6_in", "n0", None, 6, "P")
        model.edge("six01", "n0", "n1", 6, "G")
        model.edge("six12", "n1", "n2", 6, "P")
        model.edge("g6_out", "n2", None, 6, "G")
        for j in range(3):
            model.edge(f"copy{j}", f"n{j}", None, 3)
            model.edge(f"down{j}a", f"n{j}", None, 9)
            model.edge(f"down{j}b", f"n{j}", None, 9)
        nines = [f"nine{j}" for j in range(3)]
        nines += [f"down{j}{s}" for j in range(3) for s in "ab"]
        yield case, model, [_forced([f"copy{j}" for j in range(3)], in_color),
                            _forced(nines, nine_color)]


def _d6_scenarios():
    for case, in_color, out12 in (("purple-input", "P", "G"), ("green-input", "G", "P")):
        model = _Model()
        model.edge("root", "a", None, 6, in_color)
        model.edge("b3_in", "a", None, 3, "B")
        model.edge("r3_out", "a", None, 3, "R")
        model.edge("t12ab", "a", "b", 12)
        model.edge("t12ac", "a", "c", 12)
        model.edge("r3_in_b", "b", None, 3, "R")
        model.edge("b3_bc", "b", "c", 3, "B")
        model.edge("r3_out_c", "c", None, 3, "R")
        model.edge("out_b", "b", None, 6)
        model.edge("out_c", "c", None, 6)
        model.edge("stub_b", "b", None, 12)
        model.edge("stub_c", "c", None, 12)
        yield case, model, [_forced(("out_b", "out_c"), in_color),
                            _forced(("t12ab", "t12ac", "stub_b", "stub_c"), out12)]


def _add_d12(model: _Model, side, in_color, outs) -> None:
    """A D12 duplicator with input at I{side}; outs: (name, far end) at D{side}."""
    i_node, d_node = f"I{side}", f"D{side}"
    model.edge(f"in{side}", i_node, None, 12, in_color)
    model.edge(f"oprime{side}", i_node, None, 12)
    model.edge(f"obar{side}", i_node, d_node, 6)
    for node in (i_node, d_node):
        model.edge(f"r3_{node}", node, None, 3, "R")
        model.edge(f"b6_{node}", node, None, 6, "B")
        model.edge(f"p6_{node}", node, None, 6, "P")
    for name, far in outs:
        model.edge(name, d_node, far, 12)


def _d12_scenarios():
    model = _Model()
    _add_d12(model, "", None, (("out1", None), ("out2", None)))

    def same_color(sols):
        for sol in sols:
            cols = {sol[nm] for nm in ("in", "oprime", "out1", "out2")}
            if len(cols) != 1 or cols & {"R", "P", None}:
                return f"12-day edges split colors: {sorted(map(str, cols))}"
        return None

    def both_realized(sols):
        seen = _colors(sols, "in")
        return _check(seen == {"B", "G"},
                      f"input should admit blue and green, got {seen}")

    yield "free-input", model, [same_color, both_realized]


def _or_scenarios():
    for reds in product((False, True), repeat=3):
        name = "inputs-" + "".join("R" if r else "B" for r in reds)
        model = _Model()
        for j, red in enumerate(reds):
            model.edge(f"lit{j}", f"i{j}", None, 3, "R" if red else "B")
            model.edge(f"t12_{j}", f"i{j}", "or", 12)
        model.edge("r3", "or", None, 3, "R")
        model.edge("six1", "or", None, 6)
        model.edge("six2", "or", None, 6)
        model.edge("out", "or", None, 12)

        def out_range(sols, any_red=any(reds)):
            seen = _colors(sols, "out")
            allowed = {"B", "G", "P"} if any_red else {"G", "P"}
            bad = seen - allowed
            if bad:
                return f"out reached {bad}, allowed {allowed}"
            if any_red and "B" not in seen:
                return "satisfied clause must admit a blue output"
            if "G" not in seen:
                return "output must always admit green"
            return None

        yield name, model, [out_range]


def _add_or2(model: _Model, out: str) -> None:
    """An Or2 gate whose inputs end at V; its output edge `out` leaves IV."""
    model.edge("vs12", "V", None, 12)
    model.edge("vs6", "V", None, 6)
    model.edge("vprime", "V", "IV", 12)
    model.edge("r3_V", "V", None, 3, "R")
    model.edge("p6_V", "V", None, 6, "P")
    model.edge("r3_IV", "IV", None, 3, "R")
    model.edge("p6_IV", "IV", None, 6, "P")
    model.edge("b6_IV", "IV", None, 6, "B")
    model.edge("b12_IV", "IV", None, 12, "B")
    model.edge("g12_IV", "IV", None, 12, "G")
    model.edge(out, "IV", None, 12)


def _gate_scenarios(add_gate, node, output):
    """Scenarios over input colors for the 2-input sorting-layer gates; a
    blue output is allowed when `comparator`'s output `output` is blue."""
    for c1, c2 in product("BG", repeat=2):
        name = f"inputs-{c1}{c2}"
        model = _Model()
        model.edge("in1", node, None, 12, c1)
        model.edge("in2", node, None, 12, c2)
        add_gate(model, "out")
        blue_allowed = comparator(c1, c2)[output] == "B"

        def out_ok(sols, blue_allowed=blue_allowed):
            seen = _colors(sols, "out")
            if seen - {"B", "G"}:
                return f"out reached {seen - {'B', 'G'}}"
            if "G" not in seen:
                return "output must always admit green"
            if blue_allowed and "B" not in seen:
                return "blue output should be possible here"
            if not blue_allowed and "B" in seen:
                return "blue output must be impossible here"
            return None

        yield name, model, [out_ok]


def _or2_scenarios():
    yield from _gate_scenarios(_add_or2, "V", 0)


def _add_and2(model: _Model, out: str) -> None:
    """An And2 gate whose inputs end at A; its output edge `out` leaves IA."""
    model.edge("as12a", "A", None, 12)
    model.edge("as12b", "A", None, 12)
    model.edge("aand", "A", "IA", 6)
    model.edge("r3_A", "A", None, 3, "R")
    model.edge("p6_A", "A", None, 6, "P")
    model.edge("r3_IA", "IA", None, 3, "R")
    model.edge("b6_IA", "IA", None, 6, "B")
    model.edge("p6_IA", "IA", None, 6, "P")
    model.edge("aprime", "IA", None, 12)
    model.edge(out, "IA", None, 12)


def _and2_scenarios():
    yield from _gate_scenarios(_add_and2, "A", 1)


def _splitter_scenarios(kind):
    model = _Model()
    if kind == "SB6":
        pins = [("r3", 3, "R"), ("g6", 6, "G"), ("p6", 6, "P")]
        outs = [("out1", 6), ("out2", 6)]
        want = "B"
    elif kind == "SB12":
        pins = [("r3", 3, "R"), ("g6", 6, "G"), ("p6", 6, "P")]
        outs = [(f"out{i}", 12) for i in range(4)]
        want = "B"
    else:  # SG12
        pins = [("r3", 3, "R"), ("b3", 3, "B"), ("p6", 6, "P")]
        outs = [("out1", 12), ("out2", 12)]
        want = "G"
    for name, freq, color in pins:
        model.edge(name, "s", None, freq, color)
    for name, freq in outs:
        model.edge(name, "s", None, freq)
    yield "free", model, [_forced([nm for nm, _ in outs], want)]


def _swap_model(in1_color, in2_color):
    model = _Model()
    for side, color in ((1, in1_color), (2, in2_color)):
        _add_d12(model, side, color, ((f"o{side}1", "V"), (f"o{side}2", "A")))
    _add_or2(model, "out_or")
    _add_and2(model, "out_and")
    return model


def _swap_scenarios():
    for c1, c2 in product("BG", repeat=2):
        name = f"inputs-{c1}{c2}"
        model = _swap_model(c1, c2)
        want_or, want_and = comparator(c1, c2)

        def outs_ok(sols, want_or=want_or, want_and=want_and):
            or_seen = _colors(sols, "out_or")
            and_seen = _colors(sols, "out_and")
            if (or_seen | and_seen) - {"B", "G"}:
                return f"outputs left blue/green: {or_seen}, {and_seen}"
            if want_or != "B" and "B" in or_seen:
                return "or-output blue without any blue input"
            if want_and != "B" and "B" in and_seen:
                return "and-output blue without both inputs blue"
            return None

        def comparator_case(sols, want_or=want_or, want_and=want_and):
            hit = any(sol["out_or"] == want_or and sol["out_and"] == want_and
                      for sol in sols)
            return _check(hit, f"comparator outcome ({want_or},{want_and}) unreachable")

        yield name, model, [outs_ok, comparator_case]


def _tension_scenarios():
    model = _Model()
    for i in range(4):
        model.edge(f"in{i}", "T", None, 12)
    model.edge("r3", "T", None, 3, "R")
    model.edge("g6", "T", None, 6, "G")
    model.edge("p6", "T", None, 6, "P")
    yield "free", model, [_forced([f"in{i}" for i in range(4)], "B")]


_SCENARIOS = {
    "Variable": _variable_scenarios,
    "D3": _d3_scenarios,
    "D6": _d6_scenarios,
    "D12": _d12_scenarios,
    "OR": _or_scenarios,
    "Or2": _or2_scenarios,
    "And2": _and2_scenarios,
    "SB6": lambda: _splitter_scenarios("SB6"),
    "SB12": lambda: _splitter_scenarios("SB12"),
    "SG12": lambda: _splitter_scenarios("SG12"),
    "Swap": _swap_scenarios,
    "Tension": _tension_scenarios,
}


def gadget_local_check(kind: str) -> GadgetVerdict:
    """Enumerate the isolated gadget's schedules and test its characterization."""
    if kind not in _SCENARIOS:
        raise ValueError(f"unknown gadget kind {kind!r}; choose from {GADGET_KINDS}")
    results = [
        _scenario(name, model, predicates)
        for name, model, predicates in _SCENARIOS[kind]()
    ]
    return GadgetVerdict(kind, results)


def check_all_gadgets() -> dict[str, GadgetVerdict]:
    return {kind: gadget_local_check(kind) for kind in GADGET_KINDS}
