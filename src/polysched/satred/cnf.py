"""3-CNF formulas with a satisfied-clause threshold, DIMACS and `.prov` sidecar
I/O, brute-force oracle.

Literals are nonzero ints: +i for x_i, -i for its negation (1-based, DIMACS
style). The threshold k asks whether some assignment satisfies at least k
clauses simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 0:
            raise ValueError("variable count must be >= 0")
        if not 0 <= self.k <= len(self.clauses):
            raise ValueError("threshold k must satisfy 0 <= k <= #clauses")
        for c in self.clauses:
            if not c:
                raise ValueError("empty clauses are not allowed")
            if len(c) > 3:
                raise ValueError(f"clause {c} has more than 3 literals")
            if len(set(c)) != len(c):
                raise ValueError(f"duplicate literal in clause {c}")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

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


def parse_dimacs(text: str, k: int | None = None) -> CnfFormula:
    """Standard DIMACS CNF; threshold defaults to the clause count.

    Raises ValueError, prefixed `line N: ` when one line is at fault.
    """
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
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
            raise ValueError(f"line {lineno}: {exc}") from exc
        for lit in lits:
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise ValueError("missing 'p cnf' problem line")
    if declared != len(clauses):
        raise ValueError(f"line {problem_line}: declared {declared} clauses, "
                         f"found {len(clauses)}")
    if k is None:
        k = len(clauses)
    return CnfFormula(num_vars, tuple(clauses), k)


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
    lineno, clauses = header[0], []
    try:
        n_vars, m, k = map(int, header[1].split()[2:])
        for lineno, line in lines:
            if line.startswith("# clause "):
                clauses.append(tuple(map(int, line.split()[2:])))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    formula = CnfFormula(n_vars, tuple(clauses), k)
    if len(clauses) != m:
        raise ValueError(f"line {header[0]}: clause count mismatch")
    return formula


def demo_formula(k: int = 3) -> CnfFormula:
    """(x1 v x2) & (!x1) & (x1 v !x2 v x3) & (!x3); at most 3 simultaneously."""
    return CnfFormula(3, ((1, 2), (-1,), (1, -2, 3), (-3,)), k)
