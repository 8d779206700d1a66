"""Text formats for instances, schedules, and CNF formulas.

Instance: header ``ops n m`` or ``dps n m``, then m lines ``a b value``.
Schedule: header ``sched T``, then T lines of space-separated ``a-b`` edge
tokens (an empty line is an empty day). Emission is canonical (rationals as
``p/q``, integers bare), so emit(parse(x)) is byte-stable on canonical files.
"""

from __future__ import annotations

from fractions import Fraction
from operator import eq

from .core import DpsInstance, OpsInstance, PeriodicSchedule, as_rational, normalize_edge


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def emit_instance(instance: OpsInstance | DpsInstance) -> str:
    lines = []
    if isinstance(instance, OpsInstance):
        lines.append(f"ops {instance.n} {instance.m}")
        for (a, b), g in zip(instance.edges, instance.growth):
            lines.append(f"{a} {b} {format_rational(g)}")
    else:
        lines.append(f"dps {instance.n} {instance.m}")
        for (a, b), f in zip(instance.edges, instance.freq):
            lines.append(f"{a} {b} {f}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> OpsInstance | DpsInstance:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty instance file", 1)
    head = lines[0].split()
    if len(head) != 3 or head[0] not in ("ops", "dps"):
        raise ParseError("expected header 'ops n m' or 'dps n m'", 1)
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError("n and m must be integers", 1) from None
    rows = [parts for parts in map(str.split, lines[1:]) if parts]
    if len(rows) != m:
        body = _edge_lines(lines)
        raise ParseError(f"expected {m} edge lines, found {len(rows)}",
                         body[-1][0] if body else 2)
    read = _read_rows(head[0], rows)
    if read is None:
        _name_bad_line(head[0], _edge_lines(lines))
    edges, values = read
    try:
        if head[0] == "ops":
            return OpsInstance(n, edges, values)
        return DpsInstance(n, edges, values)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def _edge_lines(lines: list[str]) -> list[tuple[int, list[str]]]:
    """The line number and fields of every nonblank line after the header."""
    return [(lineno, parts) for lineno, parts in enumerate(map(str.split, lines[1:]), start=2)
            if parts]


def _read_rows(kind: str, rows: list[list[str]]) -> tuple[tuple, tuple] | None:
    """Edges and values of the edge lines' fields, read in bulk, or None when
    some line is bad (`_name_bad_line` then names it)."""
    if not rows:
        return (), ()
    if set(map(len, rows)) != {3}:
        return None
    a_col, b_col, v_col = zip(*rows)
    try:
        a_col = list(map(int, a_col))
        b_col = list(map(int, b_col))
        # Fraction reads a growth string as `as_rational` does
        values = tuple(map(Fraction if kind == "ops" else int, v_col))
    except (ValueError, ZeroDivisionError):
        return None
    # a growth must be > 0 and a frequency >= 1, which for an int is > 0
    if min(values) <= 0 or any(map(eq, a_col, b_col)):
        return None
    return tuple([(a, b) if a < b else (b, a) for a, b in zip(a_col, b_col)]), values


def _name_bad_line(kind: str, body: list[tuple[int, list[str]]]) -> None:
    """Raise a ParseError naming the first bad edge line of `body`."""
    for lineno, parts in body:
        if len(parts) != 3:
            raise ParseError("expected 'a b value'", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("endpoints must be integers", lineno) from None
        try:
            normalize_edge(a, b)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if kind == "ops":
            try:
                g = as_rational(parts[2])
            except (ValueError, ZeroDivisionError, TypeError):
                raise ParseError(f"bad growth rate {parts[2]!r}", lineno) from None
            if g <= 0:
                raise ParseError("growth rate must be > 0", lineno)
        else:
            try:
                f = int(parts[2])
            except ValueError:
                raise ParseError(f"bad frequency {parts[2]!r}", lineno) from None
            if f < 1:
                raise ParseError("frequency must be >= 1", lineno)


def _edge_tokens(instance: OpsInstance | DpsInstance) -> list[str]:
    """The canonical schedule token ``a-b`` of every edge, by edge index."""
    return [f"{a}-{b}" for a, b in instance.edges]


def emit_schedule(instance: OpsInstance | DpsInstance, schedule: PeriodicSchedule) -> str:
    tokens = _edge_tokens(instance)
    lines = [f"sched {schedule.period}"]
    for day in schedule.days:
        lines.append(" ".join(map(tokens.__getitem__, sorted(day))))
    return "\n".join(lines) + "\n"


def _read_day(by_token: dict[str, int], tokens: list[str], lineno: int) -> frozenset[int]:
    """Read one day line token by token. This accepts other spellings of an
    edge (``1-0``, ``01-2``) and names the first bad token and its line."""
    day = set()
    for token in tokens:
        try:
            a_s, b_s = token.split("-", 1)
            a, b = normalize_edge(int(a_s), int(b_s))
        except ValueError:
            raise ParseError(f"bad edge token {token!r}", lineno) from None
        e = by_token.get(f"{a}-{b}")
        if e is None:
            raise ParseError(f"edge {token!r} not in instance", lineno)
        day.add(e)
    return frozenset(day)


def parse_schedule(instance: OpsInstance | DpsInstance, text: str) -> PeriodicSchedule:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty schedule file", 1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "sched":
        raise ParseError("expected header 'sched T'", 1)
    try:
        period = int(head[1])
    except ValueError:
        raise ParseError("T must be an integer", 1) from None
    if len(lines) - 1 != period:
        raise ParseError(f"expected {period} day lines, found {len(lines) - 1}", len(lines))
    by_token = {token: i for i, token in enumerate(_edge_tokens(instance))}
    days = []
    for lineno, ln in enumerate(lines[1:], start=2):
        tokens = ln.split()
        try:
            days.append(frozenset(map(by_token.__getitem__, tokens)))
        except KeyError:
            days.append(_read_day(by_token, tokens, lineno))
    return PeriodicSchedule(period, tuple(days))
