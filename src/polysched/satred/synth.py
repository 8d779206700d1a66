"""Schedule synthesis from a satisfying assignment, and assignment extraction.

Synthesis builds a period-36 schedule (the lcm of the gadget periods 6, 12,
18). One rule, `_domains`, gives every edge its candidate phases: a channel
edge takes its colour's channel phase (the compile-time splitter
allocation), a phased B12/G12 port its producer's phase, a value edge the
class of its literal, and every other edge its colour class. Pass 1 commits
every one-phase domain; pass 2 settles the rest by small per-gadget tiling
solves in construction order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..core import PeriodicSchedule, verify_dps
from .build import GadgetRec, ReductionArtifact, channel_phase, compile_formula
from .cnf import CnfFormula
from .tiling import PERIOD, SLOT, class_phases, occ_mask, solve_first


class SynthesisRefused(ValueError):
    """The assignment does not satisfy the required number of clauses."""


class SynthesisError(RuntimeError):
    """Internal failure: a gadget admitted no consistent local schedule."""


@dataclass
class DeferredArtifact:
    """A formula whose reduction compiles on first use of `artifact`."""

    formula: CnfFormula

    @functools.cached_property
    def artifact(self) -> ReductionArtifact:
        return compile_formula(self.formula)


def simulate_channels(artifact: ReductionArtifact, satisfied: list[int]) -> dict[int, str]:
    """Color (B/G) of every channel-carrying edge under the canonical synthesis.

    satisfied lists the satisfied clauses in order, at least k of them. The
    first k go blue; comparators act as boolean or/and on blue, so blues
    bubble to the left channels.
    """
    formula = artifact.formula
    chosen = set(satisfied[: formula.k])
    colors: dict[int, str] = {}
    channel_state: list[tuple[GadgetRec, str, str]] = []
    for j, gid in enumerate(artifact.clause_out):
        g = artifact.gadgets[gid]
        channel_state.append((g, "out", "B" if j in chosen else "G"))

    def land(g: GadgetRec, port_name: str, color: str) -> None:
        # the port's edge was recorded on the producer gadget under port_name
        colors[g.edges[port_name]] = color

    for pair_c, gid in artifact.comparators:
        swap = artifact.gadgets[gid]
        g1, n1, c1 = channel_state[pair_c - 1]
        g2, n2, c2 = channel_state[pair_c]
        land(g1, n1, c1)
        land(g2, n2, c2)
        out_or = "B" if "B" in (c1, c2) else "G"
        out_and = "B" if (c1, c2) == ("B", "B") else "G"
        channel_state[pair_c - 1] = (swap, "out_or", out_or)
        channel_state[pair_c] = (swap, "out_and", out_and)
    for j, (g, name, color) in enumerate(channel_state):
        land(g, name, color)
        if j < formula.k and color != "B":
            raise SynthesisError("a tensioned channel came out green")
    return colors


def synthesize_schedule(artifact: ReductionArtifact | DeferredArtifact,
                        assignment) -> PeriodicSchedule:
    """Valid period-36 schedule; refuses if fewer than k clauses are satisfied.

    Refusal reads only the formula, so a DeferredArtifact is compiled only
    for an assignment that passes it.
    """
    formula = artifact.formula
    satisfied = formula.satisfied_clauses(assignment)
    if len(satisfied) < formula.k:
        raise SynthesisRefused(f"assignment satisfies {len(satisfied)} < k={formula.k} clauses")
    if isinstance(artifact, DeferredArtifact):
        artifact = artifact.artifact
    channel_colors = simulate_channels(artifact, satisfied)
    dps = artifact.dps
    edges, freq = dps.edges, dps.freq
    masks = [0] * dps.n  # committed days of each person, one bit per day
    committed = [False] * dps.m
    meeting: dict[tuple[int, int], list[int]] = {}  # (freq, phase) -> its edges

    def commit(items) -> None:
        for e, phase in items:
            a, b = edges[e]
            mask = occ_mask(freq[e], phase)
            if masks[a] & mask or masks[b] & mask:
                raise SynthesisError(
                    f"phase clash at edge {e} ({artifact.edge_recs[e].role})"
                )
            masks[a] |= mask
            masks[b] |= mask
            committed[e] = True
            key = (freq[e], phase)
            if key in meeting:
                meeting[key].append(e)
            else:
                meeting[key] = [e]

    domains = _domains(artifact, assignment, channel_colors)
    # pass 1: every one-phase domain
    commit((e, domain[0]) for e, domain in enumerate(domains) if len(domain) == 1)

    # pass 2: per-gadget local solves in construction order, except that
    # splitters and pendants settle last: the consumer of a flexible port
    # chooses its phase, the producer then takes what remains
    deferred = ("SB6", "SB12", "SG12", "Pendant")
    solve_order = [g for g in artifact.gadgets if g.kind not in deferred]
    solve_order += [g for g in artifact.gadgets if g.kind in deferred]
    for g in solve_order:
        # an edge between two ports of g is listed under both
        free = {e: (e, *edges[e], freq[e], domains[e])
                for e in g.edges.values() if not committed[e]}
        if not free:
            continue
        sol = solve_first(free.values(), masks)
        if sol is None:
            raise SynthesisError(f"no local schedule for {g.name}")
        commit(sol.items())

    days = [set() for _ in range(PERIOD)]
    for (f, phase), group in meeting.items():
        for d in range(phase, PERIOD, f):
            days[d].update(group)
    schedule = PeriodicSchedule(PERIOD, tuple(map(frozenset, days)))
    violation = verify_dps(dps, schedule)
    if violation is not None:
        raise SynthesisError(f"synthesized schedule invalid: {violation}")
    return schedule


def _literal_red(artifact: ReductionArtifact, rec, assignment) -> bool:
    """Whether the literal an edge carries out of its source gadget is True.

    The source is a Variable (port valR carries x, valB carries not-x) or a
    literal duplication chain; a padding variable, beyond the formula's
    variables, reads as True.
    """
    src = artifact.gadgets[rec.src_gid]
    if src.kind == "Variable":
        var, pol = src.meta["var"], 1 if rec.src_port == "valR" else -1
    elif src.kind == "D3" and src.meta["signal"][0] == "lit":
        _, var, pol = src.meta["signal"]
    else:
        raise SynthesisError(f"edge {rec.index} ({rec.role}) has no literal source")
    value = var > artifact.formula.num_vars or bool(assignment[var - 1])
    return value == (pol > 0)


def _domains(artifact: ReductionArtifact, assignment,
             channel_colors: dict[int, str]) -> list[tuple[int, ...]]:
    """Candidate phases of every edge, in the order the local solves try them.

    A channel edge or a phased B12/G12 port has one phase; so has a value
    edge, which keeps to the class of its literal. A nine-edge with no colour
    takes the class opposite its literal (a literal chain's nine-edges
    oppose its copies); every other edge keeps to its colour class.
    """
    port_phase = {g.gid: g.meta["port_phase"] for g in artifact.gadgets
                  if "port_phase" in g.meta}
    domains = []
    for rec in artifact.edge_recs:
        e = rec.index
        if e in channel_colors:
            domains.append((channel_phase(channel_colors[e], artifact.channel_of_edge[e]),))
        elif rec.src_port in port_phase.get(rec.src_gid, ()):
            domains.append((port_phase[rec.src_gid][rec.src_port],))
        else:
            color = rec.color
            if color is None and rec.freq in (3, 9):
                red = _literal_red(artifact, rec, assignment)
                color = "R" if red == (rec.freq == 3) else "B"
            domains.append(class_phases(rec.freq, color))
    return domains


# -- extraction ---------------------------------------------------------------


class ExtractionError(ValueError):
    pass


def extract_assignment(artifact: ReductionArtifact, schedule: PeriodicSchedule) -> tuple[bool, ...]:
    """Read the variable values out of any valid schedule of the polycule.

    Align the rotation so the clock's red edge sits on days 0 mod 3 (there
    is exactly one such rotation mod 6), check that every color-pinned edge
    keeps to its slots, then read x_i as True iff its red-side value edge
    occupies red slots. The result satisfies at least k clauses.
    """
    violation = verify_dps(artifact.dps, schedule)
    if violation is not None:
        raise ExtractionError(f"schedule invalid: {violation}")
    # a period 6 does not divide moves the clock's 6-day edges to another
    # residue mod 6 in the next period, so no rotation aligns them; a period
    # 6 divides repeats every residue mod 3 and mod 6, so one period shows all
    if schedule.period % 6:
        raise ExtractionError("no rotation aligns the clock to the slot classes")
    occ = schedule.occurrence_lists(artifact.dps.m)

    rotation = next((r for r in range(6) if all(
        (d - r) % SLOT[c][1] == SLOT[c][0] for c, e in artifact.clock_edges.items() for d in occ[e]
    )), None)
    if rotation is None:
        raise ExtractionError("no rotation aligns the clock to the slot classes")

    for rec in artifact.edge_recs:
        if rec.color is None:
            continue
        want, mod = SLOT[rec.color]
        for d in occ[rec.index]:
            if (d - rotation) % mod != want:
                raise ExtractionError(
                    f"edge {rec.index} ({rec.role}) leaves its {rec.color} slots; "
                    "the polycule forbids this, so the schedule data is inconsistent"
                )

    values = []
    red, mod = SLOT["R"]  # a value edge keeps to red or to blue slots, both mod 3
    for i, pair in enumerate(artifact.var_value_edges, start=1):
        residues = {(d - rotation) % mod for d in occ[pair["R"]]}
        if residues == {red}:
            values.append(True)
        elif residues == {SLOT["B"][0]}:
            values.append(False)
        else:
            raise ExtractionError(f"variable {i} value edge not slot-aligned: {residues}")
    result = tuple(values)
    satisfied = artifact.formula.count_satisfied(result)
    if satisfied < artifact.formula.k:
        raise ExtractionError(
            f"extracted assignment satisfies {satisfied} < k clauses; "
            "schedule contradicts the reduction"
        )
    return result
