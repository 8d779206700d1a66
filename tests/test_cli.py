import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polysched import cli
from polysched.satred import compile_formula, demo_formula, emit_dimacs, parse_sidecar, synth
from polysched.satred.cnf import parse_dimacs
from polysched.bounds import METHODS
from polysched.cli import (
    EX_INCONCLUSIVE,
    EX_INFEASIBLE,
    EX_OK,
    EX_PARSE,
    EX_USAGE,
    build_parser,
    main,
)
from polysched.fileio import format_rational
from polysched.generators import figure1
from polysched.matchings import MATCHING_CAP
from polysched.report import run_one


def test_gen_heat_verify_flow(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    sched = tmp_path / "fig1.sched"
    assert main(["gen", "figure1", "-o", str(ops), "--with-schedule", str(sched)]) == EX_OK
    assert main(["heat", str(ops), str(sched)]) == EX_OK
    assert capsys.readouterr().out.strip().endswith("160")
    assert main(["verify", str(ops), str(sched)]) == EX_OK
    assert "heat 160" in capsys.readouterr().out


def test_solve_exact(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    out_sched = tmp_path / "opt.sched"
    assert main(["solve", str(ops), "--emit-schedule", str(out_sched)]) == EX_OK
    out = capsys.readouterr().out
    assert "optimal heat 160" in out and "infeasible below at 144" in out
    assert main(["verify", str(ops), str(out_sched)]) == EX_OK


def test_solve_out_of_budget_prints_an_open_bracket(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    capsys.readouterr()
    # the load check and the round-robin schedule bracket the optimum before
    # the first search probe runs out of states
    assert main(["solve", str(ops), "--max-states", "1"]) == EX_INCONCLUSIVE
    assert capsys.readouterr().out == "inconclusive; bracket (144, 400)\n"


def test_feasible_exit_codes(tmp_path):
    tri = tmp_path / "tri.dps"
    main(["gen", "triangle-f2", "-o", str(tri)])
    assert main(["feasible", str(tri)]) == EX_INFEASIBLE
    pent = tmp_path / "pent.dps"
    main(["gen", "pentagon", "-o", str(pent)])
    assert main(["feasible", str(pent)]) == EX_OK
    assert main(["feasible", str(pent), "--max-states", "1"]) == EX_INCONCLUSIVE


def test_feasible_on_an_edgeless_instance(tmp_path, capsys):
    # no edges, so no fields and no state is stuck: the start state steps to
    # itself by the empty matching
    dps, sched = tmp_path / "empty.dps", tmp_path / "empty.sched"
    dps.write_text("dps 3 0\n")
    assert main(["feasible", str(dps), "--emit-schedule", str(sched)]) == EX_OK
    assert capsys.readouterr().out == "feasible (explored 1 states)\n"
    assert sched.read_text() == "sched 1\n\n"
    assert main(["verify", str(dps), str(sched)]) == EX_OK


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ops"
    bad.write_text("ops 2 1\n0 1 zero\n")
    assert main(["heat", str(bad), str(bad)]) == EX_PARSE


def test_usage_error(tmp_path):
    missing = tmp_path / "nope.ops"
    assert main(["heat", str(missing), str(missing)]) == EX_USAGE


def test_parser_reused_across_calls_answers_as_fresh_processes(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    argvs = [["solve", "--max-states"], ["bound", "--method", "mass", str(ops)],
             ["solve", str(ops)]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    fresh = [subprocess.run([sys.executable, "-m", "polysched.cli", *argv], capture_output=True,
                            text=True, env=env, timeout=60) for argv in argvs]
    capsys.readouterr()
    hits = build_parser.cache_info().hits
    for argv, proc in zip(argvs, fresh):
        assert main(argv) == proc.returncode, argv
        assert capsys.readouterr().out == proc.stdout, argv
    assert fresh[0].returncode == EX_USAGE
    assert build_parser.cache_info().hits == hits + len(argvs)


def test_bound_with_certificate(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    assert main(["bound", "--method", "bamboo", "--certificate", str(ops)]) == EX_OK
    out = capsys.readouterr().out
    assert "bamboo 160" in out and "certificate person 0" in out


def test_bound_methods_match_suite_rows(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    for method in METHODS:
        capsys.readouterr()
        assert main(["bound", "--method", method, str(ops)]) == EX_OK
        row = run_one("figure1", figure1(), "coloring", method)
        assert capsys.readouterr().out.split() == [row.bound_method,
                                                   format_rational(row.bound)]


@pytest.mark.parametrize("command", ["solve", "feasible"])
@pytest.mark.parametrize("flag, value, message", [
    ("--max-states", "0", "--max-states 0 must be at least 1"),
    ("--max-states", "-3", "--max-states -3 must be at least 1"),
    ("--time-limit", "-1", "--time-limit -1 must not be negative"),
    ("--time-limit", "nan", "--time-limit nan must not be negative"),
    ("--matching-cap", "-2", "--matching-cap -2 must be at least 1"),
    ("--matching-cap", "0", "--matching-cap 0 must be at least 1"),
])
def test_search_limits_that_allow_no_search_are_usage_errors(tmp_path, capsys, command, flag,
                                                             value, message):
    instance = tmp_path / "instance"
    main(["gen", "figure1" if command == "solve" else "triangle-f2", "-o", str(instance)])
    capsys.readouterr()
    assert main([command, str(instance), flag, value]) == EX_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_enumeration_cap(tmp_path, capsys):
    # a path of MATCHING_CAP + 1 = 25 unit edges: only --matching-cap widens
    # the exact solver, and the best bound leaves the poly density out
    m = MATCHING_CAP + 1
    ops = tmp_path / "path.ops"
    ops.write_text(f"ops {m + 1} {m}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(m)))
    dps = tmp_path / "path.dps"
    dps.write_text(f"dps {m + 1} {m}\n" + "".join(f"{i} {i + 1} 2\n" for i in range(m)))
    for argv in (["solve", str(ops)], ["feasible", str(dps)],
                 ["bound", "--method", "polydensity", str(ops)]):
        assert main(argv) == EX_USAGE, argv
        assert capsys.readouterr().err == "error: 25 edges exceeds the enumeration cap 24\n"
    assert main(["solve", str(ops), "--matching-cap", "30"]) == EX_OK
    assert capsys.readouterr().out == "optimal heat 2\ninfeasible below at 1\n"
    assert main(["feasible", str(dps), "--matching-cap", "30"]) == EX_OK
    assert capsys.readouterr().out.startswith("feasible")
    assert main(["bound", "--method", "best", str(ops)]) == EX_OK
    assert capsys.readouterr().out == "trivial 2\n"


def test_solve_above_the_cap_when_the_bracket_closes(tmp_path, capsys):
    # 30 disjoint unit edges: the load floor and the round-robin ceiling
    # meet at heat 1, so no search runs and nothing is enumerated
    ops = tmp_path / "disjoint.ops"
    ops.write_text("ops 60 30\n" + "".join(f"{2 * i} {2 * i + 1} 1\n" for i in range(30)))
    assert main(["solve", str(ops)]) == EX_OK
    assert capsys.readouterr().out == "optimal heat 1\n"


def test_schedule_algorithms(tmp_path, capsys):
    ops = tmp_path / "fig1.ops"
    main(["gen", "figure1", "-o", str(ops)])
    assert main(["schedule", "--algo", "coloring", str(ops)]) == EX_OK
    assert "ratio" in capsys.readouterr().out
    assert main(["schedule", "--algo", "layering", str(ops)]) == EX_OK
    assert "L=" in capsys.readouterr().out


def test_reduction_pipeline(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    dps = tmp_path / "f.dps"
    assert main(["reduce-sat", "--cnf", str(cnf), "-k", "2", "-o", str(dps)]) == EX_OK
    assert Path(str(dps) + ".prov").exists()
    capsys.readouterr()
    sched = tmp_path / "f.sched"
    assert main(["synth", "--artifact", str(dps), "--assign", "01",
                 "-o", str(sched)]) == EX_OK
    assert main(["verify", str(dps), str(sched)]) == EX_OK
    capsys.readouterr()
    assert main(["extract", "--artifact", str(dps), "--schedule", str(sched)]) == EX_OK
    assert capsys.readouterr().out.strip() == "01"
    # x1=True satisfies only the first clause
    assert main(["synth", "--artifact", str(dps), "--assign", "10"]) == EX_INFEASIBLE


def test_each_reduction_command_compiles_once(tmp_path, capsys, monkeypatch):
    compiles = []

    def counting_compile(formula):
        compiles.append(formula)
        return compile_formula(formula)

    monkeypatch.setattr(cli, "compile_formula", counting_compile)
    monkeypatch.setattr(synth, "compile_formula", counting_compile)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    dps, sched = tmp_path / "f.dps", tmp_path / "f.sched"
    for argv, count in [
        (["reduce-sat", "--cnf", str(cnf), "-k", "2", "-o", str(dps)], 1),
        (["synth", "--artifact", str(dps), "--assign", "01", "-o", str(sched)], 1),
        (["verify", str(dps), str(sched)], 0),
        (["extract", "--artifact", str(dps), "--schedule", str(sched)], 1),
    ]:
        compiles.clear()
        assert main(argv) == EX_OK
        assert len(compiles) == count, argv[0]
    assert capsys.readouterr().out.endswith("ok\n01\n")


def test_refused_synth_compiles_nothing(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    dps = tmp_path / "f.dps"
    assert main(["reduce-sat", "--cnf", str(cnf), "-k", "2", "-o", str(dps)]) == EX_OK
    capsys.readouterr()

    def no_compile(formula):
        raise RuntimeError("a refused assignment must not compile the reduction")

    monkeypatch.setattr(cli, "compile_formula", no_compile)
    monkeypatch.setattr(synth, "compile_formula", no_compile)
    assert main(["synth", "--artifact", str(dps), "--assign", "10"]) == EX_INFEASIBLE
    assert capsys.readouterr().out == "refused: assignment satisfies 1 < k=2 clauses\n"
    assert main(["synth", "--artifact", str(dps), "--assign", "1"]) == EX_USAGE
    assert capsys.readouterr().err == \
        "error: --assign must be a 0/1 string, one bit per variable\n"


@pytest.mark.parametrize("k", ["5", "-1"])
def test_reduce_sat_k_out_of_range_is_a_usage_error(tmp_path, capsys, k):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    dps = tmp_path / "f.dps"
    assert main(["reduce-sat", "--cnf", str(cnf), "-k", k, "-o", str(dps)]) == EX_USAGE
    assert capsys.readouterr().err == \
        f"error: -k {k} is outside 0..2, the clause count of {cnf}\n"
    assert not dps.exists()


@pytest.mark.parametrize("text, message", [
    ("p cnf 2 1\n1 x 0\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("c a comment\np cnf 2 y\n1 2 0\n", "line 2: invalid literal for int() with base 10: 'y'"),
    ("p cnf 2 3\n1 2 0\n\n-1 0\n", "line 1: declared 3 clauses, found 2"),
], ids=["token", "problem-line", "clause-count"])
def test_malformed_cnf_names_its_line(tmp_path, capsys, text, message):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    assert main(["reduce-sat", "--cnf", str(cnf), "-o", str(tmp_path / "f.dps")]) == EX_PARSE
    assert capsys.readouterr().err == f"error: {cnf}: {message}\n"


@pytest.mark.parametrize("sidecar, message", [
    ("# cnf 3 1\n", "not enough values to unpack"),
    ("# cnf 3 x 1\n", "invalid literal for int()"),
    ("# cnf 3 1 1\n# clause 1 -2 9\n", "literal 9 out of range"),
    ("", "missing '# cnf' header"),
    ("0 1 2 var:0 -> var:1 0\n# cnf 3 1 1\n# clause 1 2 3\n", "missing '# cnf' header"),
    ("# cnf 3 2 1\n# clause 1 2 3\n", "clause count mismatch"),
    ("# cnf 3 2 1\n# clause 1 2 3\n0 1 2 var:0 -> var:1 0\n# clause 1 2 -3\n",
     "clause count mismatch"),
])
def test_malformed_sidecar_is_a_parse_error(tmp_path, capsys, sidecar, message):
    dps = tmp_path / "f.dps"
    dps.write_text("dps 2 1\n0 1 2\n")
    Path(f"{dps}.prov").write_text(sidecar)
    argv = ["synth", "--artifact", str(dps), "--assign", "101", "-o", str(tmp_path / "f.sched")]
    assert main(argv) == EX_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dps}.prov: ") and message in err


def test_sidecar_holds_the_formula(tmp_path):
    text = "p cnf 4 3\n1 -2 3 0\n-1 4 0\n2 3 -4 0\n"
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    dps = tmp_path / "f.dps"
    assert main(["reduce-sat", "--cnf", str(cnf), "-k", "2", "-o", str(dps)]) == EX_OK
    prov = f"{dps}.prov"
    assert len(Path(prov).read_text().splitlines()) > 4  # provenance follows the formula
    assert parse_sidecar(Path(prov).read_text()) == parse_dimacs(text, k=2)


_CANNOT_WRITE = "error: cannot write {no}/"


# argv over {tmp}, which holds the files below, and {no}, a missing directory
@pytest.mark.parametrize("argv, code, prefix", [
    ("gen figure1 -o {no}/a.ops", EX_USAGE, _CANNOT_WRITE),
    ("gen figure1 -o {tmp}/a.ops --with-schedule {no}/a.sched", EX_USAGE, _CANNOT_WRITE),
    ("schedule --algo coloring {tmp}/fig1.ops --emit-schedule {no}/s", EX_USAGE, _CANNOT_WRITE),
    ("feasible {tmp}/pent.dps --emit-schedule {no}/s", EX_USAGE, _CANNOT_WRITE),
    ("solve {tmp}/fig1.ops --emit-schedule {no}/s", EX_USAGE, _CANNOT_WRITE),
    ("reduce-sat --cnf {tmp}/f.cnf -o {no}/f.dps", EX_USAGE, _CANNOT_WRITE),
    ("synth --artifact {tmp}/f.dps --assign 01 -o {no}/f.sched", EX_USAGE, _CANNOT_WRITE),
    # days 0 and 1 of a synthesized schedule swapped: `verify` finds a gap
    # too large, and `extract` refuses it with the same exit code, 1
    ("extract --artifact {tmp}/f.dps --schedule {tmp}/swapped.sched", EX_INFEASIBLE,
     "error: schedule invalid: gap-too-large at edge "),
    ("suite --count 1 --bound foo", EX_USAGE, "error: unknown bound method 'foo'\n"),
    # a file whose bytes do not decode is a parse error that names the file
    ("verify {tmp}/binary.ops {tmp}/f.sched", EX_PARSE, "error: {tmp}/binary.ops: "),
], ids=["gen", "gen-with-schedule", "schedule", "feasible", "solve", "reduce-sat", "synth",
        "extract-invalid", "suite-bound", "undecodable"])
def test_refusals(tmp_path, capsys, argv, code, prefix):
    tmp, no = str(tmp_path), str(tmp_path / "no")
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    for setup in ("gen figure1 -o {tmp}/fig1.ops", "gen pentagon -o {tmp}/pent.dps",
                  "reduce-sat --cnf {tmp}/f.cnf -k 2 -o {tmp}/f.dps",
                  "synth --artifact {tmp}/f.dps --assign 01 -o {tmp}/f.sched"):
        assert main(setup.format(tmp=tmp).split()) == EX_OK, setup
    days = (tmp_path / "f.sched").read_text().splitlines()
    days[1], days[2] = days[2], days[1]
    (tmp_path / "swapped.sched").write_text("\n".join(days) + "\n")
    (tmp_path / "binary.ops").write_bytes(b"ops 2 1\n0 1 \xff\n")
    capsys.readouterr()
    assert main(argv.format(tmp=tmp, no=no).split()) == code
    assert capsys.readouterr().err.startswith(prefix.format(tmp=tmp, no=no))


def test_cli_import_leaves_networkx_unloaded():
    """The package imports only the standard library."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, polysched.cli; print('networkx' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# each command in a fresh interpreter, networkx importable or not; prints
# [exit code, stdout] per command and whether networkx was loaded
_BLOCKABLE_RUN = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["networkx"] = None  # any import of networkx now fails
from polysched.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps([runs, sys.modules.get("networkx") is not None]))
"""


def test_commands_run_with_networkx_blocked(tmp_path):
    ops = tmp_path / "dense.ops"
    edges = [(a, b) for a in range(7) for b in range(a + 1, 7)][::2]
    ops.write_text(f"ops 7 {len(edges)}\n"
                   + "".join(f"{a} {b} {1 + (a * b) % 5}/{1 + a % 3}\n" for a, b in edges))
    argvs = json.dumps([["bound", "--method", "best", "--certificate", str(ops)],
                        ["schedule", "--algo", "layering", str(ops)],
                        ["suite", "--count", "3"]])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    results = {}
    for mode in ("block", "allow"):
        proc = subprocess.run([sys.executable, "-c", _BLOCKABLE_RUN, mode, argvs],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results[mode] = json.loads(proc.stdout)
    runs, loaded = results["block"]
    assert [code for code, _ in runs] == [EX_OK] * 3 and all(out for _, out in runs)
    assert results["allow"] == [runs, False]


def test_suite_deterministic(capsys):
    assert main(["suite", "--seed", "5", "--count", "4", "--format", "csv"]) == EX_OK
    first = capsys.readouterr().out
    assert main(["suite", "--seed", "5", "--count", "4", "--format", "csv"]) == EX_OK
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "instance,algorithm,heat,bound,method,ratio,verdict"


def test_suite_multiple_bound_methods(capsys):
    assert main(["suite", "--seed", "5", "--count", "2", "--format", "csv",
                 "--bound", "trivial,bamboo"]) == EX_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    # one row per instance x algorithm x bound method
    assert len(rows) == 2 * 2 * 2
    methods = {row.split(",")[4] for row in rows}
    assert methods == {"trivial", "bamboo"}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every command of the README's `## Command line` block, in order."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert {line[0] for line in lines if line} == {"polysched"}
    argvs = [line[1:] for line in lines if line]
    assert {argv[0] for argv in argvs} >= {"reduce-sat", "synth", "extract"}
    monkeypatch.chdir(tmp_path)
    Path("formula.cnf").write_text(emit_dimacs(demo_formula()))
    for argv in argvs:
        want = EX_INFEASIBLE if argv == ["feasible", "tri.dps"] else EX_OK
        assert main(argv) == want, argv
    assert capsys.readouterr().out.endswith("ok\n010\n")
