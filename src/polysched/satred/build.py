"""Compile a thresholded 3-CNF formula into a decision polycule.

Layers, top to bottom: a clock person plus one value gadget per variable
(chained by 6-day edges alternating green/purple); duplication chains that
fan out variable values and the four constant classes; one OR gadget per
clause; a bubble sorting network of SWAP comparators that herds blue
(satisfied-clause) outputs leftward; tension gadgets pinning the leftmost k
channel outputs to blue slots. Every frequency is 3, 6, 9, or 12.

Every port, whether a literal's value, a constant colour class or a phased
B12/G12 constant, lives in one table of FIFO pools keyed by (kind, sub):
sub is None for a constant, the phase for a phased kind, and (var, pol) for
a literal. Consumers draw in a fixed construction order, so the
color-forcing chain from the clock stays acyclic. Ports left over end at
fresh pendant persons, pool by pool in the table's order.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from ..core import DpsInstance
from .cnf import CnfFormula
from .tiling import class_phases


def channel_phase(color: str, c: int) -> int:
    """Phase of channel c (1-based) as a 12-day edge of colour B or G: the
    colour's phases in turn, blue (1, 4, 7, 10) and green (2, 8)."""
    phases = class_phases(12, color)
    return phases[(c - 1) % len(phases)]


def _iv_phase(kind: str, c: int) -> int:
    """Phase of the B12 or G12 constant at pair c's Swap IV person: half a
    period from the channel's own phase of that colour."""
    return (channel_phase(kind[0], c) + 6) % 12


# port kinds: frequency and forced slot color (a literal's colour is its value)
KIND_SPEC = {
    "lit": (3, None),
    "R3": (3, "R"),
    "B3": (3, "B"),
    "G6": (6, "G"),
    "P6": (6, "P"),
    "B6": (6, "B"),
    "B12": (12, "B"),
    "G12": (12, "G"),
}
# the phases that split a phased kind's pool
_PHASES = {kind: class_phases(*KIND_SPEC[kind]) for kind in ("B12", "G12")}
# frequency, colour and role of the edge a consumed port of each kind makes
_CONSUMED = {kind: (freq, color, "value" if kind == "lit" else f"const-{kind}")
             for kind, (freq, color) in KIND_SPEC.items()}
# duplicating a red constant pins the nine-edges blue, and vice versa
_NINE_COLOR = {"R3": "B", "B3": "R"}


class Port(NamedTuple):
    person: int
    gid: int
    name: str


class EdgeRec(NamedTuple):
    index: int
    a: int
    b: int
    freq: int
    color: str | None  # R/B/G/P or None for value-carrying edges
    role: str
    src_gid: int  # the producing gadget and its port name
    src_port: str
    dst_gid: int  # the consuming gadget and its port name
    dst_port: str
    layer: str


# EdgeRec._make and Port._make without their Python-level call: the
# builder makes one record per edge and one port per produced port
_edge_rec = partial(tuple.__new__, EdgeRec)
_port = partial(tuple.__new__, Port)


@dataclass(slots=True)
class GadgetRec:
    gid: int
    kind: str
    layer: str
    meta: dict
    name: str = field(init=False)
    persons: dict[str, int] = field(init=False)
    edges: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.name = f"{self.kind}{self.gid}"
        self.persons = {}
        self.edges = {}


@dataclass
class ReductionArtifact:
    dps: DpsInstance
    formula: CnfFormula
    gadgets: list[GadgetRec]
    edge_recs: list[EdgeRec]
    person_labels: list[str]
    density1: list[bool]
    clock_edges: dict[str, int]  # R/B/G/P -> edge index of the clock's four edges
    var_value_edges: list[dict[str, int]]  # per original variable: {"R": idx, "B": idx}
    comparators: list[tuple[int, int]]  # (pair c, swap gid) in execution order
    clause_out: list[int]  # OR gadget gid per clause
    channel_of_edge: dict[int, int]  # channel-carrying edge -> channel index

    def provenance_lines(self) -> list[str]:
        out = []
        for rec in self.edge_recs:
            src = f"{self.gadgets[rec.src_gid].name}:{rec.src_port}"
            dst = f"{self.gadgets[rec.dst_gid].name}:{rec.dst_port}"
            out.append(f"{rec.a} {rec.b} {rec.freq} {src} -> {dst} {rec.layer}")
        return out


class CompileError(RuntimeError):
    pass


class _Builder:
    def __init__(self, formula: CnfFormula):
        self.formula = formula
        # at least one variable pair: the chain supplies the first green port
        self.n_padded = max(2, formula.num_vars + (formula.num_vars % 2))
        self.labels: list[str] = []
        self.density1: list[bool] = []
        self.pairs: dict[tuple[int, int], int] = {}  # edge -> index, in index order
        self.freqs: list[int] = []
        self.recs: list[EdgeRec] = []
        self.gadgets: list[GadgetRec] = []
        # the port table, created in surplus-drain order: literals by variable,
        # then polarity; the constants; the phased kinds by phase
        subs = {"lit": [(i, pol) for i in range(1, self.n_padded + 1) for pol in (1, -1)],
                **_PHASES}
        self.pools: dict[tuple[str, object], deque[Port]] = {
            (kind, sub): deque() for kind in KIND_SPEC for sub in subs.get(kind, (None,))
        }
        self.channel_of_edge: dict[int, int] = {}

    # -- structure primitives --------------------------------------------

    def person(self, label: str, density1: bool) -> int:
        self.labels.append(label)
        self.density1.append(density1)
        return len(self.labels) - 1

    def gadget(self, kind: str, layer: str, **meta) -> GadgetRec:
        g = GadgetRec(len(self.gadgets), kind, layer, meta)
        self.gadgets.append(g)
        return g

    def edge(self, src_g: GadgetRec, src_name: str, a: int,
             dst_g: GadgetRec, dst_name: str, b: int,
             freq: int, color: str | None, role: str) -> int:
        if a == b:
            raise CompileError(f"self-loop at person {a} ({role})")
        pair = (a, b) if a < b else (b, a)
        idx = len(self.freqs)
        if self.pairs.setdefault(pair, idx) != idx:
            raise CompileError(f"duplicate edge {pair} ({role})")
        self.freqs.append(freq)
        src_g.edges[src_name] = idx
        if dst_g is not src_g or dst_name != src_name:
            dst_g.edges[dst_name] = idx
        self.recs.append(_edge_rec((idx, pair[0], pair[1], freq, color, role,
                                    src_g.gid, src_name, dst_g.gid, dst_name, dst_g.layer)))
        return idx

    def internal(self, g: GadgetRec, name: str, a: int, b: int,
                 freq: int, color: str | None, role: str) -> int:
        return self.edge(g, name, a, g, name, b, freq, color, role)

    # -- pools --------------------------------------------------------------

    def produce(self, kind: str, g: GadgetRec, name: str, person: int,
                sub: int | tuple[int, int] | None = None) -> None:
        self.pools[(kind, sub)].append(_port((person, g.gid, name)))

    def consume(self, kind: str, g: GadgetRec, name: str, person: int,
                sub: int | tuple[int, int] | None = None) -> int:
        """Edge from the first port in pool (kind, sub) whose producer is not
        already adjacent to `person`."""
        pool = self.pools[(kind, sub)]
        for i, port in enumerate(pool):
            p = port.person
            if p != person and ((p, person) if p < person else (person, p)) not in self.pairs:
                del pool[i]
                break
        else:
            what = kind if sub is None else f"{kind}@{sub}"
            if not pool:
                raise CompileError(f"pool {what} ran dry at {g.name}:{name}")
            raise CompileError(f"no compatible port in pool {what} at {g.name}:{name}")
        freq, color, role = _CONSUMED[kind]
        return self.edge(self.gadgets[port.gid], port.name, port.person, g, name, person,
                         freq, color, role)

    def consume_channel(self, port: Port, channel: int, g: GadgetRec, name: str,
                        person: int) -> int:
        src = self.gadgets[port.gid]
        idx = self.edge(src, port.name, port.person, g, name, person, 12, None, "channel")
        self.channel_of_edge[idx] = channel
        return idx


def _plan(formula: CnfFormula) -> dict:
    """Closed-form gadget counts, with a fixpoint for the duplication chains."""
    m = formula.num_clauses
    k = formula.k
    w = m * (m - 1) // 2
    t = -(-k // 4) if k > 0 else 0  # tension gadgets, 4 channels each
    fills = sum(3 - len(c) for c in formula.clauses)
    n_b6 = 6 * w  # one splitter per consumed 6B port (second port -> pendant)
    demand = {kind: dict.fromkeys(phases, 0) for kind, phases in _PHASES.items()}
    for c in range(1, m):
        for kind in _PHASES:
            demand[kind][_iv_phase(kind, c)] += c  # pair c hosts c comparators
    n_b12 = max(demand["B12"].values())
    n_g12 = max(demand["G12"].values())

    uses = Counter(lit for clause in formula.clauses for lit in clause)
    lit_rows = {(i, pol): 0 if uses[i * pol] <= 1 else -(-uses[i * pol] // 3)
                for i in range(1, formula.num_vars + 1) for pol in (1, -1)}

    lr, lb, kp = 1, 1, 1  # R3-chain rows, B3-chain rows, 6P-duplicator layers
    for _ in range(64):
        n_chains = 2 + sum(1 for v in lit_rows.values() if v)
        total_rows = lr + lb + sum(lit_rows.values())
        need_r3 = m + 8 * w + t + n_b6 + n_b12 + n_g12 + kp
        need_b3 = fills + n_g12 + 1
        need_g6 = t + n_b6 + n_b12 + n_chains  # chain entry nodes each take one
        need_p6 = 8 * w + t + n_b6 + n_b12 + n_g12 + 1 + total_rows  # +1 duplicator root
        have_g6 = 1 + total_rows  # trailing variable output, plus one per row
        lr2 = max(1, -(-need_r3 // 3))
        lb2 = max(1, -(-need_b3 // 3))
        if have_g6 < need_g6:  # pad the R3 chain; every extra row emits green
            lr2 = max(lr2, lr + (need_g6 - have_g6))
        have_p6 = 1 + n_chains + 2 * kp  # clock, chain entry nodes, duplicator
        kp2 = kp if have_p6 >= need_p6 else kp + -(-(need_p6 - have_p6) // 2)
        if (lr2, lb2, kp2) == (lr, lb, kp):
            break
        lr, lb, kp = max(lr, lr2), max(lb, lb2), max(kp, kp2)
    else:
        raise CompileError("chain sizing did not converge")
    return {"n_b6": n_b6, "n_b12": n_b12, "n_g12": n_g12, "lit_rows": lit_rows,
            "lr": lr, "lb": lb, "kp": kp}


def _build_variables(b: _Builder) -> tuple[GadgetRec, list[GadgetRec]]:
    """The clock and the Variable gadgets, padding variables last."""
    layer = "variable"
    clock = b.gadget("TrueClock", layer)
    t_person = b.person("T", True)
    clock.persons["T"] = t_person
    b.produce("R3", clock, "r3", t_person)
    b.produce("B3", clock, "b3", t_person)
    b.produce("P6", clock, "p6", t_person)
    prev_g, prev_name, prev_person = clock, "g6", t_person
    variables = []
    for i in range(1, b.n_padded + 1):
        g = b.gadget("Variable", layer, var=i)
        variables.append(g)
        x = b.person(f"x{i}", True)
        g.persons["x"] = x
        color = "G" if i % 2 == 1 else "P"
        b.edge(prev_g, prev_name, prev_person, g, "chain_in", x, 6, color, "var-chain")
        b.produce("lit", g, "valR", x, (i, 1))
        b.produce("lit", g, "valB", x, (i, -1))
        prev_g, prev_name, prev_person = g, "chain_out", x
    # the final (even-indexed) variable's forward output is green
    b.produce("G6", prev_g, prev_name, prev_person)
    return clock, variables


def _pool_key(signal: tuple) -> tuple[str, object]:
    """The pool a duplicator chain's signal is drawn from and copied into."""
    return ("lit", signal[1:]) if signal[0] == "lit" else (signal[1], None)


def _start_d3_chain(b: _Builder, signal: tuple, layer: str) -> GadgetRec:
    """Entry node of a value/constant duplicator chain (no rows yet)."""
    g = b.gadget("D3", layer, signal=signal, rows=0)
    a = b.person(f"D3[{signal_label(signal)}].a", True)
    g.persons["a"] = a
    kind, sub = _pool_key(signal)
    b.consume(kind, g, "in", a, sub)
    b.consume("G6", g, "g6_in", a)
    b.produce("P6", g, "p6_out", a)
    g.meta["open_stubs"] = [(a, f"nine.a{j}") for j in range(3)]
    g.meta["nine_color"] = _NINE_COLOR.get(kind)
    g.meta["copies"] = 0
    return g


def signal_label(signal: tuple) -> str:
    if signal[0] == "lit":
        return f"x{signal[1]}{'+' if signal[2] > 0 else '-'}"
    return signal[1]


def _extend_d3_chain(b: _Builder, g: GadgetRec, extra_rows: int) -> None:
    """Add rows of three copy nodes each, hanging off open nine-stubs."""
    meta = g.meta
    kind, sub = _pool_key(meta["signal"])
    nine_color = meta["nine_color"]
    stubs = deque(meta["open_stubs"])
    tag = signal_label(meta["signal"])
    for _ in range(extra_rows):
        r = meta["rows"] + 1
        meta["rows"] = r
        nodes = []
        for j in range(3):
            key = f"r{r}n{j}"
            node = b.person(f"D3[{tag}].{key}", True)
            g.persons[key] = node
            parent, pname = stubs.popleft()
            b.edge(g, pname, parent, g, f"nine.up.{key}", node, 9, nine_color, "nine")
            nodes.append(node)
        b.consume("P6", g, f"p6_in.r{r}", nodes[0])
        b.internal(g, f"six.r{r}.01", nodes[0], nodes[1], 6, "G", "row-chain")
        b.internal(g, f"six.r{r}.12", nodes[1], nodes[2], 6, "P", "row-chain")
        b.produce("G6", g, f"g6_out.r{r}", nodes[2])
        for j, node in enumerate(nodes):
            meta["copies"] += 1
            b.produce(kind, g, f"copy{meta['copies']}", node, sub)
            stubs.append((node, f"nine.r{r}n{j}.0"))
            stubs.append((node, f"nine.r{r}n{j}.1"))
    meta["open_stubs"] = list(stubs)


def _build_p6_duplicator(b: _Builder, layers: int, layer: str) -> GadgetRec:
    """Purple-constant duplicator: entry triple, then two persons per extra layer."""
    g = b.gadget("D6", layer, layers=layers)
    a = b.person("D6.a", True)
    p_b = b.person("D6.b", True)
    p_c = b.person("D6.c", True)
    g.persons.update({"a": a, "b": p_b, "c": p_c})
    b.consume("P6", g, "root", a)
    b.consume("B3", g, "b3_in", a)
    b.produce("R3", g, "r3_out.a", a)
    b.internal(g, "g12.ab", a, p_b, 12, "G", "twelve")
    b.internal(g, "g12.ac", a, p_c, 12, "G", "twelve")
    b.consume("R3", g, "r3_in.b", p_b)
    b.internal(g, "b3.bc", p_b, p_c, 3, "B", "three")
    b.produce("R3", g, "r3_out.c", p_c)
    b.produce("P6", g, "p6_out.b", p_b)
    b.produce("P6", g, "p6_out.c", p_c)
    stubs: deque[tuple[int, str]] = deque([(p_b, "g12.b.down"), (p_c, "g12.c.down")])
    for j in range(2, layers + 1):
        d = b.person(f"D6.l{j}d", True)
        e = b.person(f"D6.l{j}e", True)
        g.persons[f"l{j}d"] = d
        g.persons[f"l{j}e"] = e
        for node, tag in ((d, "d"), (e, "e")):
            parent, pname = stubs.popleft()
            b.edge(g, pname, parent, g, f"g12.up.l{j}{tag}", node, 12, "G", "twelve")
        b.consume("R3", g, f"r3_in.l{j}", d)
        b.internal(g, f"b3.l{j}", d, e, 3, "B", "three")
        b.produce("R3", g, f"r3_out.l{j}", e)
        b.produce("P6", g, f"p6_out.l{j}d", d)
        b.produce("P6", g, f"p6_out.l{j}e", e)
        stubs.append((d, f"g12.l{j}d.down"))
        stubs.append((e, f"g12.l{j}e.down"))
    g.meta["open_stubs"] = list(stubs)
    return g


def _build_splitter(b: _Builder, kind: str) -> GadgetRec:
    """SB6, SB12 or SG12: one density-1 person fanning a constant class out."""
    g = b.gadget(kind, "sorting")
    node = b.person(f"{g.name}.s", True)
    g.persons["s"] = node
    b.consume("R3", g, "r3", node)
    second = "B3" if kind == "SG12" else "G6"
    b.consume(second, g, second.lower(), node)
    b.consume("P6", g, "p6", node)
    if kind == "SB6":
        b.produce("B6", g, "out1", node)
        # the paired second output goes straight to its own pendant person
        pend = b.person(f"{g.name}.pend", False)
        g.persons["pend"] = pend
        b.internal(g, "out2", node, pend, 6, "B", "splitter-spare")
        return g
    out_kind = kind[1:]  # SB12 -> B12, SG12 -> G12
    port_phase = g.meta["port_phase"] = {}  # read by synthesis
    for i, phase in enumerate(_PHASES[out_kind]):
        b.produce(out_kind, g, f"out{i}", node, phase)
        port_phase[f"out{i}"] = phase
    return g


def _build_or(b: _Builder, clause: tuple[int, ...], clause_idx: int) -> GadgetRec:
    """Clause gadget: three inverter persons feeding a density-1 OR person."""
    g = b.gadget("OR", "clause", clause=clause_idx)
    orp = b.person(f"{g.name}.or", True)
    g.persons["or"] = orp
    for i in range(3):
        inv = b.person(f"{g.name}.i{i}", False)
        g.persons[f"i{i}"] = inv
        if i < len(clause):
            lit = clause[i]
            b.consume("lit", g, f"lit{i}", inv, (abs(lit), 1 if lit > 0 else -1))
        else:
            b.consume("B3", g, f"fill{i}", inv)  # short clause: constant False input
        b.internal(g, f"t12.{i}", inv, orp, 12, None, "or-link")
    b.consume("R3", g, "r3", orp)
    for i in (1, 2):
        filler = b.person(f"{g.name}.f{i}", False)
        g.persons[f"f{i}"] = filler
        b.internal(g, f"six.{i}", orp, filler, 6, None, "or-fill")
    g.meta["out_port"] = Port(orp, g.gid, "out")
    return g


def comparator(c1: str, c2: str) -> tuple[str, str]:
    """The (OR, AND) output colours of a Swap whose channel inputs have the
    colours c1 and c2, each B or G: the OR output is blue iff an input is
    blue, the AND output iff both are."""
    return ("B" if "B" in (c1, c2) else "G", "B" if c1 == c2 == "B" else "G")


def _build_swap(b: _Builder, pair_c: int, tier: int, in1: Port, in2: Port) -> GadgetRec:
    """Comparator: duplicate both inputs, OR them leftward, AND them rightward."""
    g = b.gadget("Swap", "sorting", pair=pair_c, tier=tier)

    def person(tag: str, d1: bool = True) -> int:
        p = b.person(f"{g.name}.{tag}", d1)
        g.persons[tag] = p
        return p

    # duplicators for the two channel inputs
    for side, port in ((1, in1), (2, in2)):
        i_node = person(f"I{side}")
        d_node = person(f"D{side}")
        spare = person(f"sp{side}", False)
        channel = pair_c + side - 1
        b.consume_channel(port, channel, g, f"in{side}", i_node)
        b.internal(g, f"oprime{side}", i_node, spare, 12, None, "dup-spare")
        b.internal(g, f"obar{side}", i_node, d_node, 6, None, "dup-link")
        for node, tag in ((i_node, f"i{side}"), (d_node, f"d{side}")):
            b.consume("R3", g, f"r3.{tag}", node)
            b.consume("P6", g, f"p6.{tag}", node)
            b.consume("B6", g, f"b6.{tag}", node)

    v_node = person("V")
    iv_node = person("IV")
    a_node = person("A")
    ia_node = person("IA")
    # copies: left copies feed the OR side, right copies the AND side
    b.internal(g, "o11", g.persons["D1"], v_node, 12, None, "dup-out")
    b.internal(g, "o12", g.persons["D1"], a_node, 12, None, "dup-out")
    b.internal(g, "o21", g.persons["D2"], v_node, 12, None, "dup-out")
    b.internal(g, "o22", g.persons["D2"], a_node, 12, None, "dup-out")
    # OR half
    sp_v12 = person("spV12", False)
    sp_v6 = person("spV6", False)
    b.internal(g, "vs12", v_node, sp_v12, 12, None, "or2-spare")
    b.internal(g, "vs6", v_node, sp_v6, 6, None, "or2-spare")
    b.internal(g, "vprime", v_node, iv_node, 12, None, "or2-link")
    b.consume("R3", g, "r3.v", v_node)
    b.consume("P6", g, "p6.v", v_node)
    b.consume("R3", g, "r3.iv", iv_node)
    b.consume("P6", g, "p6.iv", iv_node)
    b.consume("B6", g, "b6.iv", iv_node)
    for kind in _PHASES:
        b.consume(kind, g, f"{kind.lower()}.iv", iv_node, _iv_phase(kind, pair_c))
    # AND half
    sp_a1 = person("spA1", False)
    sp_a2 = person("spA2", False)
    sp_a3 = person("spA3", False)
    b.internal(g, "as12a", a_node, sp_a1, 12, None, "and2-spare")
    b.internal(g, "as12b", a_node, sp_a2, 12, None, "and2-spare")
    b.internal(g, "aand", a_node, ia_node, 6, None, "and2-link")
    b.consume("R3", g, "r3.a", a_node)
    b.consume("P6", g, "p6.a", a_node)
    b.consume("R3", g, "r3.ia", ia_node)
    b.consume("P6", g, "p6.ia", ia_node)
    b.consume("B6", g, "b6.ia", ia_node)
    b.internal(g, "aprime", ia_node, sp_a3, 12, None, "and2-spare")
    g.meta["out_or"] = Port(iv_node, g.gid, "out_or")
    g.meta["out_and"] = Port(ia_node, g.gid, "out_and")
    return g


def _build_tension(b: _Builder, inputs: list[tuple[Port, int] | None]) -> GadgetRec:
    """Pin up to four channel outputs to blue slots; unused inputs get pendants."""
    g = b.gadget("Tension", "tension")
    t_node = b.person(f"{g.name}.t", True)
    g.persons["t"] = t_node
    for i, item in enumerate(inputs):
        if item is not None:
            port, channel = item
            b.consume_channel(port, channel, g, f"in{i}", t_node)
        else:
            pend = b.person(f"{g.name}.pend{i}", False)
            g.persons[f"pend{i}"] = pend
            b.internal(g, f"fill{i}", t_node, pend, 12, "B", "tension-fill")
    b.consume("R3", g, "r3", t_node)
    b.consume("G6", g, "g6", t_node)
    b.consume("P6", g, "p6", t_node)
    return g


def comparator_order(m: int) -> list[tuple[int, int]]:
    """(tier, pair) execution order of the bubble network: tiers top-down.

    Pair c (channels c, c+1) hosts comparators at tiers c-1, c-3, ..., 1-c.
    """
    items = []
    for c in range(1, m):
        for tier in range(c - 1, -c, -2):
            items.append((tier, c))
    items.sort(key=lambda tc: (-tc[0], tc[1]))
    return items


def _attach_pendant(b: _Builder, src_g: GadgetRec, src_name: str, person: int,
                    freq: int, color: str | None, role: str, layer: str) -> int:
    g = b.gadget("Pendant", layer)
    p = g.persons["p"] = b.person(g.name + ".p", False)
    return b.edge(src_g, src_name, person, g, "in", p, freq, color, role)


def compile_formula(formula: CnfFormula) -> ReductionArtifact:
    """Build the polycule that is schedulable iff >= k clauses are satisfiable."""
    plan = _plan(formula)
    b = _Builder(formula)
    clock, variables = _build_variables(b)

    # constant supply, in an order that keeps every pool ahead of demand
    r3_chain = _start_d3_chain(b, ("const", "R3"), "duplication")
    _extend_d3_chain(b, r3_chain, 1)
    b3_chain = _start_d3_chain(b, ("const", "B3"), "duplication")
    _extend_d3_chain(b, b3_chain, 1)
    _build_p6_duplicator(b, plan["kp"], "duplication")
    _extend_d3_chain(b, r3_chain, plan["lr"] - 1)
    _extend_d3_chain(b, b3_chain, plan["lb"] - 1)

    lit_chains = []
    for i in range(1, formula.num_vars + 1):
        for pol in (1, -1):
            rows = plan["lit_rows"][(i, pol)]
            if rows:
                chain = _start_d3_chain(b, ("lit", i, pol), "duplication")
                _extend_d3_chain(b, chain, rows)
                lit_chains.append(chain)

    for kind, count in (("SB6", plan["n_b6"]), ("SB12", plan["n_b12"]), ("SG12", plan["n_g12"])):
        for _ in range(count):
            _build_splitter(b, kind)

    or_gadgets = [_build_or(b, clause, j) for j, clause in enumerate(formula.clauses)]
    channels: list[tuple[Port, int]] = [
        (g.meta["out_port"], j + 1) for j, g in enumerate(or_gadgets)
    ]

    comparators: list[tuple[int, int]] = []
    for tier, c in comparator_order(formula.num_clauses):
        in1, _ = channels[c - 1]
        in2, _ = channels[c]
        swap = _build_swap(b, c, tier, in1, in2)
        comparators.append((c, swap.gid))
        channels[c - 1] = (swap.meta["out_or"], c)
        channels[c] = (swap.meta["out_and"], c + 1)

    k = formula.k
    for t0 in range(0, k, 4):
        group: list[tuple[Port, int] | None] = []
        for j in range(t0, t0 + 4):
            group.append(channels[j] if j < k else None)
        _build_tension(b, group)
    for j in range(k, formula.num_clauses):
        port, channel = channels[j]
        idx = _attach_pendant(b, b.gadgets[port.gid], port.name, port.person,
                              12, None, "channel-out", "tension")
        b.channel_of_edge[idx] = channel

    # surplus ports of every pool end at pendants, in the table's order
    for (kind, _), pool in b.pools.items():
        freq, color = KIND_SPEC[kind]
        role = "value-spare" if kind == "lit" else f"surplus-{kind}"
        layer = "sorting" if kind in _PHASES else "duplication"
        for port in pool:
            _attach_pendant(b, b.gadgets[port.gid], port.name, port.person,
                            freq, color, role, layer)
        pool.clear()
    for g in b.gadgets:
        if g.kind in ("D3", "D6") and g.meta.get("open_stubs"):
            freq = 9 if g.kind == "D3" else 12
            color = g.meta.get("nine_color") if g.kind == "D3" else "G"
            for person, pname in g.meta["open_stubs"]:
                _attach_pendant(b, g, pname, person, freq, color, "stub-spare", g.layer)
            g.meta["open_stubs"] = []

    dps = DpsInstance(len(b.labels), tuple(b.pairs), tuple(b.freqs))
    _validate(b, dps)

    clock_edges = {
        "R": clock.edges["r3"],
        "B": clock.edges["b3"],
        "G": clock.edges["g6"],
        "P": clock.edges["p6"],
    }
    return ReductionArtifact(
        dps=dps,
        formula=formula,
        gadgets=b.gadgets,
        edge_recs=b.recs,
        person_labels=b.labels,
        density1=b.density1,
        clock_edges=clock_edges,
        var_value_edges=[{"R": g.edges["valR"], "B": g.edges["valB"]}
                         for g in variables[:formula.num_vars]],
        comparators=comparators,
        clause_out=[g.gid for g in or_gadgets],
        channel_of_edge=b.channel_of_edge,
    )


def _validate(b: _Builder, dps: DpsInstance) -> None:
    """Every frequency is 3, 6, 9 or 12; a density-1 person has load exactly 1
    and every other person a load below 1."""
    if not set(dps.freq) <= {3, 6, 9, 12}:
        raise CompileError("emitted a frequency outside {3, 6, 9, 12}")
    load = [0] * dps.n  # in units of 1/36, which every frequency above divides
    for (x, y), f in zip(dps.edges, dps.freq):
        units = 36 // f
        load[x] += units
        load[y] += units
    for p, (dense, units) in enumerate(zip(b.density1, load)):
        if units != 36 if dense else units >= 36:
            raise CompileError(f"{'' if dense else 'non-'}density-1 person {b.labels[p]} "
                               f"has load {Fraction(units, 36)}")


def density_one_persons(artifact: ReductionArtifact) -> list[int]:
    return [p for p, dense in enumerate(artifact.density1) if dense]
