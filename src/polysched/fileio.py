"""Text formats for instances and schedules.

Instance: header ``ops n m`` or ``dps n m``, then m lines ``a b value``.
Schedule: header ``sched T``, then T lines of space-separated ``a-b`` edge
tokens (an empty line is an empty day). Emission is canonical (rationals as
``p/q``, integers bare), so emit(parse(x)) is byte-stable on canonical files.

Parsing knows only the text: fields, integers and value tokens, each edge
line read once. What an instance may be (persons, edges, values) is judged by
its constructor, and a refusal is reported at the line of the edge it names.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    DpsInstance, InstanceError, OpsInstance, PeriodicSchedule, normalize_edge, rational_from_text,
)


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
    read_value, what = (rational_from_text, "growth rate") if head[0] == "ops" else (int, "frequency")
    edges, values, linenos = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError("expected 'a b value'", lineno)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError("endpoints must be integers", lineno) from None
        try:
            values.append(read_value(parts[2]))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad {what} {parts[2]!r}", lineno) from None
        linenos.append(lineno)
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}",
                         linenos[-1] if linenos else len(lines))
    try:
        if head[0] == "ops":
            return OpsInstance(n, edges, values)
        return DpsInstance(n, edges, values)
    except InstanceError as exc:
        raise ParseError(str(exc), 1 if exc.edge is None else linenos[exc.edge]) from None


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
    try:
        return PeriodicSchedule(period, tuple(days))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
