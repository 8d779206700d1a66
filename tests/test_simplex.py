import random
from fractions import Fraction

import pytest
from helpers import reference_solve_max

from polysched import bounds
from polysched.core import OpsInstance
from polysched.simplex import solve_max


def test_textbook_lp():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    sol = solve_max([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
    assert sol.objective == 36
    assert sol.x == [Fraction(2), Fraction(6)]


def test_duals_satisfy_strong_duality():
    sol = solve_max([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
    assert sum(y * b for y, b in zip(sol.duals, [4, 12, 18])) == sol.objective
    assert all(y >= 0 for y in sol.duals)


def test_degenerate_rhs_terminates():
    # b contains zeros: Bland's rule must still terminate
    sol = solve_max([1, 1], [[1, -1], [-1, 1], [1, 1]], [0, 0, 2])
    assert sol.objective == 2


def test_unbounded_detected():
    with pytest.raises(ValueError, match="unbounded"):
        solve_max([1], [[-1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError, match="b >= 0"):
        solve_max([1], [[1]], [-1])


def test_random_lps_duality_exact():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        c = [Fraction(rng.randint(0, 6)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-2, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        # keep it bounded: add a box constraint per variable
        for j in range(n):
            rows.append([Fraction(1) if i == j else Fraction(0) for i in range(n)])
            b.append(Fraction(10))
        sol = solve_max(c, rows, b)
        # primal feasibility
        for row, bi in zip(rows, b):
            assert sum(a * x for a, x in zip(row, sol.x)) <= bi
        assert all(x >= 0 for x in sol.x)
        # dual feasibility and exact strong duality
        assert all(y >= 0 for y in sol.duals)
        for j in range(n):
            assert sum(rows[i][j] * sol.duals[i] for i in range(len(rows))) >= c[j]
        assert sum(y * bi for y, bi in zip(sol.duals, b)) == sol.objective
        assert sum(cj * xj for cj, xj in zip(c, sol.x)) == sol.objective


def _outcome(solver, c, rows, b):
    try:
        return solver(c, rows, b)
    except ValueError as exc:
        return type(exc), str(exc)


def _random_rational(rng, lo, hi):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 4, 6, 7, 9]))


def test_matches_rational_tableau_on_random_lps():
    """Same objective, x, duals, pivot count and errors as the rational tableau."""
    rng = random.Random(29)
    kinds = {"solved": 0, "unbounded": 0, "degenerate": 0}
    for case in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 7)
        c = [_random_rational(rng, -3, 8) for _ in range(n)]
        rows = [[_random_rational(rng, -5, 7) for _ in range(n)] for _ in range(m)]
        b = [Fraction(0) if rng.random() < 0.3 else _random_rational(rng, 1, 9)
             for _ in range(m)]
        if case % 3:  # box constraints keep two thirds of the LPs bounded
            for j in range(n):
                rows.append([Fraction(int(i == j)) for i in range(n)])
                b.append(Fraction(rng.randint(1, 12), rng.randint(1, 5)))
        expected = _outcome(reference_solve_max, c, rows, b)
        assert _outcome(solve_max, c, rows, b) == expected
        if isinstance(expected, tuple):
            assert expected == (ValueError, "LP is unbounded")
            kinds["unbounded"] += 1
        else:
            kinds["solved"] += 1
            kinds["degenerate"] += 0 in b and expected.pivots > 0
    assert kinds["solved"] >= 150 and kinds["unbounded"] >= 30 and kinds["degenerate"] >= 50


@pytest.mark.parametrize("c, rows, b", [
    ([1, 2], [[1, 2], [3]], [1, 1]),
    ([1], [[1], [2]], [Fraction(1, 2), Fraction(-1, 3)]),
    ([Fraction(1, 2)], [[Fraction(-2, 3)]], ["0"]),
    ([1, "1/2"], [["1/3", 1], [2, "-3/4"]], [1, "5/2"]),
])
def test_matches_rational_tableau_on_edge_inputs(c, rows, b):
    assert _outcome(solve_max, c, rows, b) == _outcome(reference_solve_max, c, rows, b)


def test_matches_rational_tableau_on_poly_density_lps(monkeypatch):
    """The LPs `poly_density` builds for dense instances with rational growth."""
    lps = []

    def recording(c, rows, b):
        lps.append((c, rows, b))
        return solve_max(c, rows, b)

    monkeypatch.setattr(bounds, "solve_max", recording)
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(6, 9)
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = tuple(sorted(rng.sample(pool, rng.randint(10, min(len(pool), 16)))))
        growth = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in edges)
        bounds.poly_density(OpsInstance(n, edges, growth))
    assert len(lps) == 40
    for c, rows, b in lps:
        expected = reference_solve_max(c, rows, b)
        assert solve_max(c, rows, b) == expected
        assert expected.pivots > 0
