"""Phase-assignment engine over a 36-day cycle.

At a person whose incident inverse frequencies sum to 1, every edge of a
valid 36-day schedule occurs exactly every f days (gaps sum to 36 while
each is at most f), so an edge's schedule is determined by its phase in
0..f-1. Assigning phases subject to per-person disjointness therefore
enumerates exactly the valid local schedules.

`SLOT` is the one table of slot residues: a day belongs to colour c's
slots iff day % modulus == residue. Everything else that knows a colour's
days (phase domains, synthesis phases, extraction) reads it from here.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

PERIOD = 36

# slot classes: colour -> (residue, modulus)
SLOT = {"R": (0, 3), "B": (1, 3), "G": (2, 6), "P": (5, 6)}


@cache
def occ_mask(freq: int, phase: int) -> int:
    mask = 0
    for d in range(phase, PERIOD, freq):
        mask |= 1 << d
    return mask


@cache
def occ_masks(freq: int, phases: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(occ_mask(freq, phase) for phase in phases)


@cache
def class_phases(freq: int, color: str | None) -> tuple[int, ...]:
    """Phases whose occurrence set lies inside the color class; every phase
    when color is None."""
    return tuple(p for p in range(freq) if color is None or phase_color(freq, p) == color)


def phase_color(freq: int, phase: int) -> str | None:
    """The slot class the phase keeps to, if any; freq divides PERIOD.

    The occurrences phase + j*freq all have the residue of phase mod a
    modulus exactly when the modulus divides freq (every modulus divides
    PERIOD, so a lone occurrence at freq = PERIOD is covered too).
    """
    for color, (residue, mod) in SLOT.items():
        if freq % mod == 0 and phase % mod == residue:
            return color
    return None


def solve(edges, base_masks) -> Iterator[dict[object, int]]:
    """Yield phase assignments keeping every endpoint's day set disjoint.

    edges: one (key, a, b, freq, phases) record per edge, joining the person
    keys a and b, with its candidate phases; base_masks gives the
    already-committed occupancy of every endpoint, by person key (a list
    indexed by person or a dict; never mutated). Most-constrained edges are
    tried first; within a domain, phases in the given order.
    """
    # per edge in search order (sorted is stable, so ties keep their given
    # order): key, endpoints, phases and their day masks
    steps = [(key, a, b, domain, occ_masks(freq, domain))
             for key, a, b, freq, domain in sorted(edges, key=lambda e: len(e[4]))]
    masks = {p: base_masks[p] for _, a, b, _, _ in steps for p in (a, b)}
    if not steps:
        yield {}
        return
    assignment: dict[object, int] = {}
    # depth-first, one loop step per placement; tried[d] counts the phases
    # tried at depth d, so a depth returned to frees its current phase first
    tried = [0] * len(steps)
    depth = 0
    while depth >= 0:
        key, pa, pb, domain, occ = steps[depth]
        i = tried[depth]
        if i:
            masks[pa] &= ~occ[i - 1]
            masks[pb] &= ~occ[i - 1]
        while i < len(occ) and (masks[pa] & occ[i] or masks[pb] & occ[i]):
            i += 1
        if i == len(occ):
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = i + 1
        masks[pa] |= occ[i]
        masks[pb] |= occ[i]
        assignment[key] = domain[i]
        if depth + 1 < len(steps):
            depth += 1
        else:
            yield dict(assignment)


def solve_first(edges, base_masks) -> dict[object, int] | None:
    for sol in solve(edges, base_masks):
        return sol
    return None
