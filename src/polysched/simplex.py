"""Dense exact simplex for small LPs: max c.x s.t. Ax <= b, x >= 0, b >= 0.

The tableau is fraction-free (Edmonds' integer-preserving pivoting, with the
exact divisions of Bareiss 1968): every entry is an integer, and the rational
tableau is the integer one divided by a single common denominator d.

Row scaling. Constraint row i is multiplied by s_i, the lcm of the
denominators of its entries and of b_i, and the objective row by s_0, the
lcm of the denominators of c. Slack i is measured in units of 1/s_i, so the
slack columns stay unit vectors and the start tableau is integral with d = 1.

Pivot rule. Pivoting on p = T[r][s] > 0 leaves row r as it is and replaces
every other row i, the objective row included, by

    T[i][j] <- (p * T[i][j] - T[i][s] * T[r][j]) // d,    then d <- p.

Divided by the new d = p, these are exactly the rational pivot's rows
R[r] / R[r][s] and R[i] - R[i][s] * R[r] / R[r][s], with R = T / d. The
divisions are exact: by Sylvester's determinant identity every entry of T is,
up to sign, a minor of the scaled start matrix (the objective row counted as
one more row), and d is the determinant of the current basis. Since every
pivot is positive and d starts at 1, d > 0, so T and the rational tableau
agree in sign entry by entry.

Bland's rule on both choices, so degenerate pivots cannot cycle: enter the
first column with a positive objective entry; leave by the least ratio
rhs_i / coef_i, compared by cross-multiplication, ties to the least basis
index. Scaling a row by s_i > 0 changes neither the signs of the objective
row nor the order of the ratios, so the pivots are the rational tableau's,
step for step. Fractions are built once, at the end: x = T[i][-1] / d, the
objective -z[-1] / (d * s_0), and the dual of row i -z[n+i] * s_i / (d * s_0),
read off the slack columns; strong duality then holds exactly.
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


def _scaled(values) -> tuple[list[int], int]:
    """Integers s * v for the lcm s of the denominators of the rationals v."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_max(c, a_rows, b) -> LpSolution:
    m = len(a_rows)
    n = len(c)
    if any(len(row) != n for row in a_rows):
        raise ValueError("ragged constraint matrix")
    if any(Fraction(v) < 0 for v in b):
        raise ValueError("this solver requires b >= 0 (slack basis start)")

    tableau = []
    scales = []
    for i in range(m):
        row, scale = _scaled([Fraction(v) for v in a_rows[i]] + [Fraction(b[i])])
        tableau.append(row[:n] + [int(k == i) for k in range(m)] + row[n:])
        scales.append(scale)
    basis = [n + i for i in range(m)]
    zrow, z_scale = _scaled([Fraction(v) for v in c])
    zrow += [0] * (m + 1)

    d = 1
    pivots = 0
    while True:
        enter = None
        for j in range(n + m):
            if zrow[j] > 0:
                enter = j
                break
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
        p = tableau[leave][enter]
        prow = tableau[leave]
        for i in range(m):
            if i != leave:
                tableau[i] = _pivot_row(tableau[i], prow, enter, p, d)
        zrow = _pivot_row(zrow, prow, enter, p, d)
        d = p
        basis[leave] = enter
        pivots += 1

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tableau[i][-1], d)
    objective = Fraction(-zrow[-1], d * z_scale)
    duals = [Fraction(-zrow[n + i] * scales[i], d * z_scale) for i in range(m)]
    return LpSolution(objective, x, duals, pivots)


def _pivot_row(row: list[int], prow: list[int], enter: int, p: int, d: int) -> list[int]:
    """(p * row - row[enter] * prow) // d, the row's entries over the new denominator p."""
    f = row[enter]
    if f == 0:
        if p == d:
            return row
        return [p * v // d for v in row]
    return [(p * v - f * w) // d for v, w in zip(row, prow)]
