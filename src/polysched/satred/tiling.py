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


def solve(
    variables: list[tuple[object, int, list[int]]],
    endpoints: dict[object, tuple[object, object]],
    base_masks: dict[object, int],
) -> Iterator[dict[object, int]]:
    """Yield phase assignments keeping every endpoint's day set disjoint.

    variables: (key, freq, candidate phases); endpoints maps each key to the
    two person keys whose occupancy the edge joins; base_masks gives the
    already-committed occupancy (not mutated). Most-constrained variables
    are tried first; within a domain, phases in the given order.
    """
    masks = dict(base_masks)
    order = sorted(range(len(variables)), key=lambda i: (len(variables[i][2]), i))
    assignment: dict[object, int] = {}

    def rec(pos: int) -> Iterator[dict[object, int]]:
        if pos == len(order):
            yield dict(assignment)
            return
        key, freq, domain = variables[order[pos]]
        pa, pb = endpoints[key]
        for phase in domain:
            mask = occ_mask(freq, phase)
            if masks.get(pa, 0) & mask or masks.get(pb, 0) & mask:
                continue
            masks[pa] = masks.get(pa, 0) | mask
            masks[pb] = masks.get(pb, 0) | mask
            assignment[key] = phase
            yield from rec(pos + 1)
            del assignment[key]
            masks[pa] &= ~mask
            masks[pb] &= ~mask

    yield from rec(0)


def solve_first(variables, endpoints, base_masks) -> dict[object, int] | None:
    for sol in solve(variables, endpoints, base_masks):
        return sol
    return None
