"""Seeded inputs, command lists and output checks for the benchmark workloads.

Every workload owns a fixed corpus drawn from its instance family with a
fixed corpus seed. The run seed draws an isomorphic copy of that corpus
(persons relabelled; variables permuted and sign-flipped, clauses and
literals reordered) and the order of the ops. Different seeds therefore give
different files and outputs, while the work per pass stays the same: with
fresh draws, one instance of the exact solver's heavy tail decides a whole
run's throughput. Edge lines keep their corpus order, because the order of
the maximal matchings, and with it the simplex's pivot count under Bland's
rule and the exact search's order, follows the edge order.

An op is one `polysched` command line. Its check recomputes the command's
claim through another code path and runs outside the timed region; it
returns None on success or a one-line reason, and may raise ValueError or
IndexError on output it cannot read.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from polysched import bounds, core, fileio

CORPUS_SEED = {"ops": 7, "dense": 11, "cnf": 3}


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], str | None]
    chain: tuple | None = None  # reduce round trip: (formula, assignment)


# -- instance families --------------------------------------------------------


def family_ops(rng: random.Random) -> tuple[int, list, list]:
    """One draw of the `report.random_ops_instance` family (2-7 persons,
    at most 10 edges, integer growth 1-6), restated here so that the inputs
    are fixed by the benchmark and not by the program under test."""
    n = rng.randint(2, 7)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(1, min(len(pool), 10))
    edges = sorted(rng.sample(pool, m))
    growth = [Fraction(rng.randint(1, 6)) for _ in edges]
    return n, edges, growth


def family_dense(rng: random.Random) -> tuple[int, list, list]:
    """Dense instances beyond the exact solver: 6-9 persons, 10-16 edges,
    rational growth p/q with p in 1..12 and q in 1..4."""
    n = rng.randint(6, 9)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = rng.randint(10, min(len(pool), 16))
    edges = sorted(rng.sample(pool, m))
    growth = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in edges]
    return n, edges, growth


def family_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """Random clauses of 1-3 distinct literals and a threshold k in 0..m."""
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return num_vars, clauses, rng.randint(0, num_clauses)


def relabel_graph(rng: random.Random, n: int, edges: list, growth: list):
    """Isomorphic copy: persons permuted, edge i still on line i."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges], growth


def relabel_cnf(rng: random.Random, num_vars: int, clauses: list, k: int):
    """Equivalent formula: variables permuted and sign-flipped, clauses and
    literals reordered. The number of assignments reaching k is unchanged."""
    perm = list(range(1, num_vars + 1))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in range(num_vars)]
    out = []
    for clause in clauses:
        lits = [perm[abs(lit) - 1] * (1 if lit > 0 else -1) * (-1 if flip[abs(lit) - 1] else 1)
                for lit in clause]
        rng.shuffle(lits)
        out.append(tuple(lits))
    rng.shuffle(out)
    return num_vars, out, k


def instance_text(n: int, edges: list, growth: list) -> str:
    lines = [f"ops {n} {len(edges)}"]
    lines += [f"{a} {b} {g.numerator if g.denominator == 1 else f'{g.numerator}/{g.denominator}'}"
              for (a, b), g in zip(edges, growth)]
    return "\n".join(lines) + "\n"


def dimacs_text(num_vars: int, clauses: list) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def count_satisfied(clauses: list, bits: str) -> int:
    return sum(any((bits[abs(lit) - 1] == "1") == (lit > 0) for lit in c) for c in clauses)


# -- shared check helpers -------------------------------------------------------


def _schedule_heat(instance: core.OpsInstance, path: Path) -> tuple[Fraction | None, str | None]:
    """Heat of an emitted schedule, read back through fileio; None and a
    reason when the file is missing, unparsable or not a matching per day."""
    try:
        schedule = fileio.parse_schedule(instance, path.read_text())
    except (OSError, fileio.ParseError) as exc:
        return None, f"schedule unreadable: {exc}"
    bad = core.matching_violation(instance.edges, schedule)
    if bad is not None:
        return None, f"schedule invalid: {bad}"
    h = core.heat(instance, schedule)
    if h is core.UNBOUNDED:
        return None, "schedule misses an edge"
    return h, None


# -- solve-seeded ----------------------------------------------------------------


def solve_check(instance: core.OpsInstance, witness: Path):
    # computed on first use, outside the timed region, and kept for later passes
    best_bound = functools.cache(lambda: bounds.best_bound(instance).value)

    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("optimal heat "):
            return "no optimum printed"
        optimum = Fraction(lines[0].split()[2])
        h, why = _schedule_heat(instance, witness)
        if why:
            return why
        if h != optimum:
            return f"witness heat {h} != printed optimum {optimum}"
        if optimum < best_bound():
            return f"optimum {optimum} below best_bound {best_bound()}"
        if len(lines) > 1:
            if not lines[1].startswith("infeasible below at "):
                return f"unexpected line {lines[1]!r}"
            if Fraction(lines[1].split()[-1]) >= optimum:
                return "predecessor not below the optimum"
        return None
    return check


def build_solve(seed: int, workdir: Path, count: int) -> list[Op]:
    corpus_rng = random.Random(CORPUS_SEED["ops"])
    corpus = [family_ops(corpus_rng) for _ in range(count)]
    rng = random.Random(seed)
    ops = []
    for i, draw in enumerate(corpus):
        n, edges, growth = relabel_graph(rng, *draw)
        path = workdir / f"solve-{i}.ops"
        path.write_text(instance_text(n, edges, growth))
        witness = workdir / f"solve-{i}.sched"
        instance = core.OpsInstance(n, tuple(edges), tuple(growth))
        ops.append(Op(["solve", str(path), "--emit-schedule", str(witness)],
                      solve_check(instance, witness)))
    rng.shuffle(ops)
    return ops


# -- dense bounds and approximations ----------------------------------------------


def bound_check(instance: core.OpsInstance, state: dict):
    def check(rc: int, stdout: str) -> str | None:
        state.pop("bound", None)
        if rc != 0:
            return f"exit code {rc}"
        lines = stdout.splitlines()
        method, printed = lines[0].split()
        value = Fraction(printed)
        certificate = None
        if method == "polydensity":
            if not lines[1].startswith("certificate z "):
                return "polydensity bound without dual weights"
            z = tuple(Fraction(t) for t in lines[1].split()[2:])
            if len(z) != instance.m:
                return "dual weight count != edge count"
            certificate = bounds.DualWeights(z)
            if bounds.dual_value(instance, certificate) != value:
                return "dual weights do not recompute the printed bound"
        elif method == "bamboo":
            certificate = int(lines[1].split()[-1])
        report = bounds.BoundReport(method, value, certificate)
        if not bounds.verify_certificate(instance, report):
            return f"certificate does not recompute {method} {value}"
        state["bound"] = value
        return None
    return check


def schedule_check(instance: core.OpsInstance, path: Path, state: dict):
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("heat "):
            return "no heat printed"
        printed = Fraction(lines[0].split()[1])
        h, why = _schedule_heat(instance, path)
        if why:
            return why
        if h != printed:
            return f"schedule heat {h} != printed {printed}"
        if "bound" not in state:
            return "no certified bound for this instance"
        if state["bound"] > h:
            return f"bound {state['bound']} above heat {h}"
        return None
    return check


def dense_chains(rng: random.Random, workdir: Path, count: int) -> list[list[Op]]:
    """Per dense instance: `bound --certificate`, then both approximations."""
    corpus_rng = random.Random(CORPUS_SEED["dense"])
    corpus = [family_dense(corpus_rng) for _ in range(count)]
    chains = []
    for i, draw in enumerate(corpus):
        n, edges, growth = relabel_graph(rng, *draw)
        path = workdir / f"dense-{i}.ops"
        path.write_text(instance_text(n, edges, growth))
        instance = core.OpsInstance(n, tuple(edges), tuple(growth))
        state: dict = {}
        chain = [Op(["bound", "--method", "best", "--certificate", str(path)],
                    bound_check(instance, state))]
        for algo in ("layering", "coloring"):
            out = workdir / f"dense-{i}-{algo}.sched"
            chain.append(Op(["schedule", "--algo", algo, str(path), "--emit-schedule", str(out)],
                            schedule_check(instance, out, state)))
        chains.append(chain)
    return chains


# -- reduce round trip ------------------------------------------------------------

# (variables, clauses) per corpus formula: every clause count 1..5 once, so a
# pass holds small and large compiled instances in fixed proportion
CNF_SHAPES = [(3, 1), (4, 2), (3, 3), (4, 4), (3, 5)]


def reduce_check(artifact: Path):
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            head = artifact.read_text().split("\n", 1)[0].split()
        except OSError as exc:
            return f"artifact unreadable: {exc}"
        words = stdout.replace(",", "").split()
        if head[:1] != ["dps"] or words[1:2] != [head[1]] or words[3:4] != [head[2]]:
            return f"printed size {stdout.strip()!r} disagrees with header {head}"
        if not artifact.with_name(artifact.name + ".prov").exists():
            return "no provenance sidecar"
        return None
    return check


def synth_check(satisfied: bool, schedule: Path):
    def check(rc: int, stdout: str) -> str | None:
        if not satisfied:
            if rc == 1 and stdout.startswith("refused"):
                return None
            return f"assignment below k not refused (exit {rc})"
        if rc != 0:
            return f"exit code {rc}: {stdout.strip()[:60]}"
        try:
            head = schedule.read_text().split("\n", 1)[0]
        except OSError as exc:
            return f"schedule unreadable: {exc}"
        return None if head.startswith("sched ") else f"bad schedule header {head!r}"
    return check


def verify_check(rc: int, stdout: str) -> str | None:
    return None if rc == 0 and stdout == "ok\n" else f"verify said {stdout.strip()!r} (exit {rc})"


def extract_check(num_vars: int, clauses: list, k: int):
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        bits = stdout.strip()
        if len(bits) != num_vars or set(bits) - {"0", "1"}:
            return f"unreadable assignment {bits!r}"
        if count_satisfied(clauses, bits) < k:
            return f"extracted {bits} satisfies fewer than k={k} clauses"
        return None
    return check


def reduce_parts(rng: random.Random, workdir: Path, shapes: list):
    """Per formula one `reduce-sat`, and per assignment a chain: `synth`, and
    when it is not refused `verify` and `extract`."""
    corpus_rng = random.Random(CORPUS_SEED["cnf"])
    corpus = [family_cnf(corpus_rng, nv, nc) for nv, nc in shapes]
    compiles, chains = [], []
    for i, draw in enumerate(corpus):
        num_vars, clauses, k = relabel_cnf(rng, *draw)
        cnf = workdir / f"formula-{i}.cnf"
        cnf.write_text(dimacs_text(num_vars, clauses))
        artifact = workdir / f"formula-{i}.dps"
        compiles.append(Op(["reduce-sat", "--cnf", str(cnf), "-k", str(k), "-o", str(artifact)],
                           reduce_check(artifact)))
        for bits in itertools.product("01", repeat=num_vars):
            bits = "".join(bits)
            sched = workdir / f"formula-{i}-{bits}.sched"
            chain = (i, bits)
            satisfied = count_satisfied(clauses, bits) >= k
            ops = [Op(["synth", "--artifact", str(artifact), "--assign", bits, "-o", str(sched)],
                      synth_check(satisfied, sched), chain)]
            if satisfied:
                ops.append(Op(["verify", str(artifact), str(sched)], verify_check, chain))
                ops.append(Op(["extract", "--artifact", str(artifact), "--schedule", str(sched)],
                              extract_check(num_vars, clauses, k), chain))
            chains.append(ops)
    return compiles, chains


# -- workloads -------------------------------------------------------------------


def build_bound_reduce(seed: int, workdir: Path, size: tuple) -> list[Op]:
    """Every `reduce-sat` first, then the dense instances' chains and the
    formulas' chains in one shuffled order. The slowest ops of each kind
    (dense bounds; synth and extract on the largest formula) are thus spread
    over the whole pass, so the percentiles sample the machine's speed over
    the whole run rather than over a few stretches of about a second."""
    dense_count, shapes = size
    rng = random.Random(seed)
    compiles, chains = reduce_parts(rng, workdir, shapes)
    chains += dense_chains(rng, workdir, dense_count)
    rng.shuffle(compiles)
    rng.shuffle(chains)
    return compiles + [op for chain in chains for op in chain]


# Full size: a pass of about 4 s (solve-seeded) and 12 s (bound-and-reduce),
# of 230 and 265 ops, so that at least ten ops lie beyond the 95th percentile.
# Tiny: for the tests.
SIZES = {
    "solve-seeded": {"full": 230, "tiny": 12},
    "bound-and-reduce": {"full": (40, CNF_SHAPES), "tiny": (2, [(3, 1), (3, 2)])},
}
BUILD_PASS = {"solve-seeded": build_solve, "bound-and-reduce": build_bound_reduce}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Op]:
    """Write one pass's inputs into workdir and return its ops in run order."""
    return BUILD_PASS[workload](seed, workdir, SIZES[workload][size])
