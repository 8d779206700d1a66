"""3-CNF formulas with a satisfied-clause threshold, DIMACS and `.prov` sidecar
I/O, brute-force oracle.

Literals are nonzero ints: +i for x_i, -i for its negation (1-based, DIMACS
style). The threshold k asks whether some assignment satisfies at least k
clauses simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..fileio import ParseError


class FormulaError(ValueError):
    """A formula `CnfFormula` refuses; `clause` is the index of the first bad
    clause, or None when the fault is not in one clause."""

    def __init__(self, message: str, clause: int | None = None):
        super().__init__(message)
        self.clause = clause


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 0:
            raise FormulaError("variable count must be >= 0")
        if not 0 <= self.k <= len(self.clauses):
            raise FormulaError("threshold k must satisfy 0 <= k <= #clauses")
        for j, c in enumerate(self.clauses):
            if not c:
                raise FormulaError("empty clauses are not allowed", j)
            if len(c) > 3:
                raise FormulaError(f"clause {c} has more than 3 literals", j)
            if len(set(c)) != len(c):
                raise FormulaError(f"duplicate literal in clause {c}", j)
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormulaError(f"literal {lit} out of range", j)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def satisfied_clauses(self, assignment) -> list[int]:
        """Indices of the clauses satisfied by assignment[i] = truth value of x_{i+1}."""
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length must equal the variable count")
        return [j for j, c in enumerate(self.clauses)
                if any(assignment[abs(lit) - 1] == (lit > 0) for lit in c)]

    def count_satisfied(self, assignment) -> int:
        """How many clauses the assignment satisfies."""
        return len(self.satisfied_clauses(assignment))


def max3sat_oracle(formula: CnfFormula) -> int:
    """Exact maximum simultaneously satisfiable clause count, by enumeration."""
    if formula.num_vars > 20:
        raise ValueError("oracle enumerates 2^n assignments; needs n <= 20")
    if not formula.clauses:
        return 0
    best = 0
    for bits in product((False, True), repeat=formula.num_vars):
        best = max(best, formula.count_satisfied(bits))
        if best == formula.num_clauses:
            break
    return best


def _formula(num_vars: int, clauses: list, k: int, lines: list[int], head: int) -> CnfFormula:
    """`CnfFormula(num_vars, clauses, k)`; a refusal is a `ParseError` at
    `lines[j]` when clause j is at fault, else at the header line `head`."""
    try:
        return CnfFormula(num_vars, tuple(clauses), k)
    except FormulaError as exc:
        raise ParseError(str(exc), head if exc.clause is None else lines[exc.clause]) from None


def parse_dimacs(text: str, k: int | None = None) -> CnfFormula:
    """Standard DIMACS CNF; threshold defaults to the clause count.

    Raises ValueError, prefixed `line N: ` when one line is at fault; a
    clause is at fault at the line of its first literal.
    """
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    starts: list[int] = []  # per clause, the line of its first literal
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        try:
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line {line!r}")
                num_vars, declared = int(parts[2]), int(parts[3])
                problem_line = lineno
                continue
            lits = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        for lit in lits:
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                if not current:
                    starts.append(lineno)
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise ValueError("missing 'p cnf' problem line")
    if declared != len(clauses):
        raise ParseError(f"declared {declared} clauses, found {len(clauses)}", problem_line)
    return _formula(num_vars, clauses, len(clauses) if k is None else k, starts, problem_line)


def emit_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for c in formula.clauses:
        lines.append(" ".join(str(lit) for lit in c) + " 0")
    return "\n".join(lines) + "\n"


def emit_sidecar(artifact) -> str:
    """The `.prov` sidecar of a compiled reduction: `# cnf n m k`, one
    `# clause ...` line per clause, then `artifact.provenance_lines()`."""
    formula = artifact.formula
    lines = [f"# cnf {formula.num_vars} {formula.num_clauses} {formula.k}"]
    lines += [f"# clause {' '.join(map(str, c))}" for c in formula.clauses]
    lines += artifact.provenance_lines()
    return "\n".join(lines) + "\n"


def parse_sidecar(text: str) -> CnfFormula:
    """The formula of a `.prov` sidecar, read from its leading `#` lines only.

    Raises ValueError, prefixed `line N: ` when one line is at fault.
    """
    end = 0  # end of the leading '#' lines
    while text.startswith("#", end):
        end = text.find("\n", end) + 1 or len(text)
    lines = list(enumerate(text[:end].splitlines(), 1))
    header = next((line for line in lines if line[1].startswith("# cnf ")), None)
    if header is None:
        raise ValueError("missing '# cnf' header")
    lineno, clauses, at = header[0], [], []
    try:
        n_vars, m, k = map(int, header[1].split()[2:])
        for lineno, line in lines:
            if line.startswith("# clause "):
                clauses.append(tuple(map(int, line.split()[2:])))
                at.append(lineno)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc
    formula = _formula(n_vars, clauses, k, at, header[0])
    if len(clauses) != m:
        raise ParseError("clause count mismatch", header[0])
    return formula


def demo_formula(k: int = 3) -> CnfFormula:
    """(x1 v x2) & (!x1) & (x1 v !x2 v x3) & (!x3); at most 3 simultaneously."""
    return CnfFormula(3, ((1, 2), (-1,), (1, -2, 3), (-3,)), k)
