"""The poly density's closed form (Edmonds' odd-set formula) against the LP,
and the commands that print only its value running no LP."""

import random
import warnings
from fractions import Fraction
from itertools import combinations

import pytest
from helpers import dense_instance

from polysched import bounds
from polysched.bounds import (
    bamboo_bound,
    best_bound,
    poly_density,
    poly_density_bound,
    poly_density_value,
    total_growth_bound,
    trivial_bound,
    verify_certificate,
)
from polysched.cli import EX_OK, EX_USAGE, main
from polysched.core import OpsInstance, dps_to_ops
from polysched.generators import tadpole
from polysched.matchings import MATCHING_CAP, MatchingCapExceeded, enumerate_maximal_matchings
from polysched.report import seeded_suite

# a broken peel or subset enumeration tends to loop rather than answer
pytestmark = pytest.mark.usefixtures("time_limit")


def instance(n, edges, growth=None):
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    growth = growth or (1,) * len(edges)
    return OpsInstance(n, edges, tuple(Fraction(g) for g in growth))


def brute_force_value(inst):
    """max(largest load, max over every odd S, |S| >= 3, of g(E[S]) / floor(|S|/2))."""
    load = [Fraction(0)] * inst.n
    for (a, b), g in zip(inst.edges, inst.growth):
        load[a] += g
        load[b] += g
    best = max(load)
    for size in range(3, inst.n + 1, 2):
        for subset in combinations(range(inst.n), size):
            inside = set(subset)
            total = sum((g for (a, b), g in zip(inst.edges, inst.growth)
                         if a in inside and b in inside), Fraction(0))
            best = max(best, total / (size // 2))
    return best


def stress_graphs():
    """name -> (persons, edges, poly density at unit growth); all within the cap."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    rows = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    cols = [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    return {
        "C23": (23, [(i, (i + 1) % 23) for i in range(23)], Fraction(23, 11)),
        "Petersen": (10, outer + spokes + inner, 3),
        "K7": (7, list(combinations(range(7), 2)), 7),
        "W12": (13, [(i, (i + 1) % 12) for i in range(12)] + [(i, 12) for i in range(12)], 12),
        "K2,12": (14, [(a, b) for a in (0, 1) for b in range(2, 14)], 12),
        "grid4x4": (16, rows + cols, 4),
        "24 disjoint edges": (48, [(2 * i, 2 * i + 1) for i in range(24)], 1),
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_closed_form_equals_lp_on_the_seeded_suite(seed):
    for name, inst in seeded_suite(seed, 60):
        assert poly_density_value(inst) == poly_density(inst).value, name


def test_closed_form_equals_lp_on_dense_instances():
    rng = random.Random(11)
    for _ in range(40):
        inst = dense_instance(rng)
        assert poly_density_value(inst) == poly_density(inst).value, inst


def test_closed_form_on_the_tadpole_grid():
    for k in (1, 2, 3):
        for f in (2, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst = dps_to_ops(tadpole(k, f))
            assert poly_density_value(inst) == Fraction(7, 6) == poly_density(inst).value


@pytest.mark.parametrize("name", list(stress_graphs()))
def test_closed_form_equals_lp_on_stress_graphs(name):
    n, edges, unit_value = stress_graphs()[name]
    assert len(edges) <= MATCHING_CAP
    assert poly_density_value(instance(n, edges)) == unit_value
    rng = random.Random(name)
    for growth in ((1,) * len(edges),
                   [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in edges]):
        inst = instance(n, edges, growth)
        assert poly_density_value(inst) == poly_density(inst).value


def test_closed_form_equals_every_odd_set_by_brute_force():
    # sparse and dense graphs with pendants, trees and several components,
    # where the 2-core and the connected-set search leave most sets out
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 9)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(1, min(len(pool), 14)))
        inst = instance(n, edges, [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in edges])
        assert poly_density_value(inst) == brute_force_value(inst), inst


def test_closed_form_refuses_like_the_lp():
    m = MATCHING_CAP + 1
    path = instance(m + 1, [(i, i + 1) for i in range(m)])
    with pytest.raises(MatchingCapExceeded) as enumerated:
        enumerate_maximal_matchings(path.n, path.edges)
    for fn in (poly_density_value, poly_density):
        with pytest.raises(MatchingCapExceeded) as raised:
            fn(path)
        assert str(raised.value) == str(enumerated.value)
    for fn in (poly_density_value, poly_density):
        with pytest.raises(ValueError, match="instance has no edges"):
            fn(OpsInstance(3, (), ()))


def test_uncertified_report_carries_the_value_and_no_certificate():
    rng = random.Random(3)
    for _ in range(20):
        inst = dense_instance(rng)
        report = poly_density_bound(inst)
        assert report.certificate is None
        assert report.value == poly_density_value(inst) == poly_density(inst).value
        assert verify_certificate(inst, report)
        others = (trivial_bound, bamboo_bound, total_growth_bound)
        assert best_bound(inst).value == max(report.value, *(fn(inst).value for fn in others))
    forged = bounds.BoundReport("polydensity", report.value + 1, None)
    assert not verify_certificate(inst, forged)


def test_lp_value_is_checked_against_the_closed_form(monkeypatch):
    monkeypatch.setattr(bounds, "poly_density_value", lambda instance: Fraction(2))
    with pytest.raises(RuntimeError, match="differs from the closed form 2"):
        poly_density(instance(2, [(0, 1)]))


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    solve_max = bounds.solve_max

    def counted(*args):
        calls.append(args)
        return solve_max(*args)

    monkeypatch.setattr(bounds, "solve_max", counted)
    return calls


def test_value_only_commands_run_no_lp(tmp_path, capsys, lp_calls):
    ops = tmp_path / "dense.ops"
    inst = dense_instance(random.Random(5))
    ops.write_text(f"ops {inst.n} {inst.m}\n"
                   + "".join(f"{a} {b} {g}\n" for (a, b), g in zip(inst.edges, inst.growth)))
    for argv in (["schedule", "--algo", "coloring", str(ops)],
                 ["schedule", "--algo", "layering", str(ops)],
                 ["suite", "--count", "5", "--bound", "best,polydensity"],
                 ["bound", "--method", "best", str(ops)],
                 ["bound", "--method", "polydensity", str(ops)]):
        assert main(argv) == EX_OK, argv
    assert lp_calls == []
    value_only = capsys.readouterr().out.splitlines()[-1]
    assert main(["bound", "--method", "polydensity", "--certificate", str(ops)]) == EX_OK
    assert len(lp_calls) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == value_only and printed[1].startswith("certificate z ")


# test id -> command run on an instance of persons and no edges
EDGELESS_COMMANDS = {
    "bound-polydensity": ["bound", "--method", "polydensity"],
    "bound-polydensity-certificate": ["bound", "--method", "polydensity", "--certificate"],
    "bound-trivial": ["bound", "--method", "trivial"],
    "bound-best": ["bound", "--method", "best"],
    "bound-bamboo": ["bound", "--method", "bamboo"],
    "schedule-coloring": ["schedule", "--algo", "coloring"],
    "schedule-layering": ["schedule", "--algo", "layering"],
    "solve": ["solve"],
}


@pytest.mark.parametrize("command", list(EDGELESS_COMMANDS))
def test_edgeless_instance_is_a_usage_error(tmp_path, capsys, command):
    ops = tmp_path / "edgeless.ops"
    ops.write_text("ops 3 0\n")
    assert main([*EDGELESS_COMMANDS[command], str(ops)]) == EX_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: instance has no edges\n")
