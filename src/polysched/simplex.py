"""Dense exact simplex for small LPs: max c.x s.t. Ax <= b, x >= 0, b >= 0.

The tableau is condensed (Tucker's form): it stores one column per nonbasic
variable and the right-hand side, and no column for a basic variable, whose
column in the full tableau is a unit vector. It is fraction-free: every
entry is an integer, and the rational tableau is the integer one divided by
a single common denominator d.

Row scaling. Constraint row i is multiplied by s_i, the lcm of the
denominators of its entries and of b_i, and the objective row by s_0, the
lcm of the denominators of c. Slack i is measured in units of 1/s_i, so its
column in the full tableau starts as a unit vector and the start tableau is
integral with d = 1: the scaled A and b, with every slack basic.

Pivot rule (Edmonds' integer exchange, J. Res. NBS 71B, 1967). Pivoting on
p = T[r][s] > 0 swaps the entering variable of column s with the leaving
variable of row r and sets

    T[r][j]  unchanged for j != s,        T[r][s] <- d,
    T[i][s] <- -T[i][s]                   for i != r,
    T[i][j] <- (p * T[i][j] - T[i][s] * T[r][j]) // d    otherwise,

objective row included, then d <- p. Each column so computed is the full
fraction-free tableau's column of the same variable: for j != s it is that
tableau's pivot step (Bareiss 1968), and column s is what the leaving
variable's column d * e_r turns into. The divisions are therefore exact: by
Sylvester's determinant identity every entry is, up to sign, a minor of the
scaled start matrix (the objective row counted as one more row), and d is
the determinant of the current basis. Since every pivot is positive and d
starts at 1, d > 0, so T and the rational tableau agree in sign entry by
entry.

Bland's rule on both choices, by variable index, so degenerate pivots cannot
cycle: enter the nonbasic variable of least index with a positive objective
entry (a basic one has objective entry 0); leave by the least ratio
rhs_i / coef_i, compared by cross-multiplication, ties to the least basic
variable. Scaling a row by s_i > 0 changes neither the signs of the
objective row nor the order of the ratios, so the pivots are the rational
tableau's, step for step. Fractions are built once, at the end: x of a
basic variable is its row's T[i][-1] / d, the objective -z[-1] / (d * s_0),
and the dual of row i is -z[j] * s_i / (d * s_0) when slack i is nonbasic in
column j, else 0; strong duality then holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LpSolution:
    objective: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int


def _exact(v) -> int | Fraction:
    """An int or Fraction as it is; anything else (a string, say) as a Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _scaled(values) -> tuple[list[int], int]:
    """Integers s * v for the lcm s of the denominators of the rationals v."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_max(c, a_rows, b) -> LpSolution:
    m = len(a_rows)
    n = len(c)
    if any(len(row) != n for row in a_rows):
        raise ValueError("ragged constraint matrix")
    b = [_exact(v) for v in b]
    if any(v < 0 for v in b):
        raise ValueError("this solver requires b >= 0 (slack basis start)")

    tableau = []
    scales = []
    for i in range(m):
        scaled, scale = _scaled([_exact(v) for v in a_rows[i]] + [b[i]])
        tableau.append(scaled)
        scales.append(scale)
    zrow, z_scale = _scaled([_exact(v) for v in c])
    zrow.append(0)
    nonbasic = list(range(n))  # variable of each column; slack i is n + i
    basis = [n + i for i in range(m)]  # variable of each row

    d = 1
    pivots = 0
    while True:
        enter = None
        for j in range(n):
            if zrow[j] > 0 and (enter is None or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                rhs = tableau[i][-1]
                if leave is not None:
                    # sign of rhs / coef - best_rhs / best_coef, both coefs > 0
                    diff = rhs * best_coef - best_rhs * coef
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_coef = i, rhs, coef
        if leave is None:
            raise ValueError("LP is unbounded")
        prow = tableau[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = _exchange_row(tableau[i], prow, enter, p, d)
        zrow = _exchange_row(zrow, prow, enter, p, d)
        prow[enter] = d
        d = p
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
        pivots += 1

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], d)
    objective = Fraction(-zrow[-1], d * z_scale)
    duals = [Fraction(0)] * m
    for j, var in enumerate(nonbasic):
        if var >= n:
            duals[var - n] = Fraction(-zrow[j] * scales[var - n], d * z_scale)
    return LpSolution(objective, x, duals, pivots)


def _exchange_row(row: list[int], prow: list[int], enter: int, p: int, d: int) -> list[int]:
    """A non-pivot row after the exchange: (p * row - row[enter] * prow) // d,
    with -row[enter] in the entering column."""
    f = row[enter]
    if f == 0:
        return row if p == d else [p * v // d for v in row]
    out = [(p * v - f * w) // d for v, w in zip(row, prow)]
    out[enter] = -f
    return out
