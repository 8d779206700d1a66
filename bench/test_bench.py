"""Fast tests of the benchmark itself: tiny runs of every workload and of the
traced mode, and checks that corrupted outputs count as failures.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from polysched import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "provenance" in json.loads(lines[-2])
    return json.loads(lines[-1])


def execute(op: workloads.Op) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_the_layers_it_uses(capsys, workload):
    result = bench(capsys, workload, 1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    used = {
        "solve-seeded": ["exact.probes", "exact.states.infeasible", "matchings.calls"],
        "bound-and-reduce": ["simplex.pivots", "bounds.calls", "coloring.calls", "layering.calls",
                             "satred.compile.calls", "core.verify.edge_days", "fileio.bytes"],
    }[workload]
    assert all(metrics[name] > 0 for name in used)
    assert metrics["cli.self_s"] > 0
    if workload != "solve-seeded":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("exact."))
    else:
        assert all(v == 0 for k, v in metrics.items() if k.startswith("simplex."))
    if workload == "bound-and-reduce":
        assert metrics["satred.compile.per_chain"] == 2
        assert metrics["core.verify.per_chain"] == 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    files = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        ops = workloads.build(workload, 5, tmp_path / name, "tiny")
        files.append(([op.argv[0] for op in ops],
                      {p.name: p.read_text() for p in (tmp_path / name).iterdir()}))
    assert files[0] == files[1]


def _corrupt_schedule(path: Path) -> None:
    """Drop every meeting of one relationship from a schedule file."""
    head, *days = path.read_text().splitlines()
    victim = next(tok for day in days for tok in day.split())
    days = [" ".join(tok for tok in day.split() if tok != victim) for day in days]
    path.write_text("\n".join([head] + days) + "\n")


def test_solve_check_rejects_a_wrong_heat_and_a_mutated_witness(tmp_path):
    op = workloads.build("solve-seeded", 2, tmp_path, "tiny")[0]
    rc, stdout = execute(op)
    assert op.check(rc, stdout) is None
    heat = stdout.splitlines()[0].split()[2]
    assert op.check(rc, stdout.replace(f"optimal heat {heat}", "optimal heat 1000", 1))
    assert op.check(2, stdout)
    _corrupt_schedule(Path(op.argv[3]))
    assert op.check(rc, stdout) is not None


def test_dense_checks_reject_wrong_bounds_and_mutated_schedules(tmp_path):
    bound, layering, _ = workloads.dense_chains(random.Random(2), tmp_path, 1)[0]
    rc, stdout = execute(bound)
    assert bound.check(rc, stdout) is None
    method, value = stdout.splitlines()[0].split()
    assert bound.check(rc, stdout.replace(f"{method} {value}", f"{method} {value}1", 1))
    assert bound.check(rc, stdout) is None  # restores the certified bound
    rc, stdout = execute(layering)
    assert layering.check(rc, stdout) is None
    assert layering.check(rc, stdout.replace("heat ", "heat 1", 1))
    _corrupt_schedule(Path(layering.argv[-1]))
    assert layering.check(rc, stdout) is not None


def test_reduce_checks_reject_wrong_outputs(tmp_path):
    compiles, chains = workloads.reduce_parts(random.Random(2), tmp_path, [(3, 1), (3, 2)])
    ops = compiles + [op for chain in chains for op in chain]
    for op in ops:
        rc, stdout = execute(op)
        assert op.check(rc, stdout) is None, op.argv
    synth_ok = next(op for op in ops if op.argv[0] == "synth" and
                    any(o.chain == op.chain and o.argv[0] == "verify" for o in ops))
    assert synth_ok.check(1, "refused: ...\n")
    assert next(op for op in ops if op.argv[0] == "verify").check(1, "violation: gap-too-large at edge 3\n")
    extract = next(op for op in ops if op.argv[0] == "extract" and _formula_of(op)[2] > 0)
    num_vars, clauses, k = _formula_of(extract)
    short = next(bits for bits in map("".join, itertools.product("01", repeat=num_vars))
                 if workloads.count_satisfied(clauses, bits) < k)
    assert extract.check(0, short + "\n")
    assert extract.check(0, "2\n")


def _formula_of(extract_op: workloads.Op):
    """Formula and threshold behind an extract op, read back from its files."""
    artifact = Path(extract_op.argv[2])
    prov = Path(str(artifact) + ".prov").read_text().splitlines()
    _, _, n, _, k = prov[0].split()
    clauses = [tuple(int(x) for x in ln.split()[2:]) for ln in prov if ln.startswith("# clause ")]
    return int(n), clauses, int(k)


def test_runner_counts_failed_checks_and_digest_mismatches(tmp_path):
    ops = workloads.build("solve-seeded", 2, tmp_path, "tiny")[:3]
    runner = run.Runner(cli.main, ops, None)
    runner.run_pass()
    assert runner.failures == []
    digests = list(runner.digests)
    digests[1] = "0" * 16
    runner = run.Runner(cli.main, ops, digests)
    ops[0].check = lambda rc, stdout: Fraction(stdout.split()[9])  # unreadable
    ops[2].check = lambda rc, stdout: "wrong"
    runner.run_pass()
    assert runner.attempted == 3
    assert len(runner.failures) == 3


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve-seeded",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
