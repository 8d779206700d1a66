"""The certified dense path: its outputs pinned by digest, and each piece of
work done once (one matching enumeration per certified bound, one colouring
per distinct layering band)."""

import hashlib
import math
import random

import pytest
from helpers import dense_instance

from polysched import bounds, layering
from polysched.cli import EX_OK, main
from polysched.fileio import emit_instance
from polysched.report import seeded_suite


def corpus():
    """200 dense-family instances, then the 200 of `seeded_suite(5, 200)`."""
    rng = random.Random(15)
    return [dense_instance(rng) for _ in range(200)] + [inst for _, inst in seeded_suite(5, 200)]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def poly_density_line(inst) -> str:
    result = bounds.poly_density(inst)
    primal = ";".join(f"{sorted(mm)}:{y}" for mm, y in result.primal)
    return (f"{result.value}|{','.join(map(str, result.dual.z))}|{result.dual_objective}"
            f"|{result.primal_objective}|{primal}")


def layered_line(inst) -> str:
    result = layering.layered_schedule(inst)
    days = ";".join(",".join(map(str, sorted(day))) for day in result.schedule.days)
    return (f"{result.schedule.period}|{days}|{result.chosen_level}|{result.achieved_heat}"
            f"|{result.per_layer_bound}|{result.decomposition}")


# sha256 of those lines over `corpus()`: a changed value, certificate,
# primal, schedule, level or bound changes it
POLY_DENSITY_DIGEST = "0242ae9be86ecf5d7b96917d3172e599f1be4bd53fc4c7f393287efec56eb3c9"
LAYERED_DIGEST = "df5c09cc2a12496cf4fc5f6a002fc4f260bee147aa25f33338a19e8b07b58505"


def test_poly_density_outputs_are_pinned():
    assert digest(map(poly_density_line, corpus())) == POLY_DENSITY_DIGEST


def test_layered_schedule_outputs_are_pinned():
    assert digest(map(layered_line, corpus())) == LAYERED_DIGEST


def counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_certified_bound_enumerates_the_matchings_once(tmp_path, monkeypatch):
    calls = counting(monkeypatch, bounds, "enumerate_maximal_matchings")
    rng = random.Random(4)
    for k in range(5):
        path = tmp_path / f"dense{k}.ops"
        path.write_text(emit_instance(dense_instance(rng)))
        calls.clear()
        assert main(["bound", "--method", "best", "--certificate", str(path)]) == EX_OK
        assert len(calls) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_layering_colours_each_distinct_band_once(monkeypatch, seed):
    calls = counting(monkeypatch, layering, "color_edges")
    rng = random.Random(seed)
    for _ in range(20):
        inst = dense_instance(rng)
        calls.clear()
        layering.layered_schedule(inst)
        levels = range(math.ceil(math.log2(inst.max_degree + 1)) + 1)
        bands = {band for level in levels
                 for band in layering.decompose(inst, level).layers if band}
        assert sorted(calls) == sorted((inst.n, tuple(inst.edges[e] for e in band))
                                       for band in bands)
