import os
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import first_reaching_assignment
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polysched.cli import EX_PARSE, main

from polysched.core import (
    DpsInstance, OpsInstance, PeriodicSchedule, as_rational, heat, ops_to_dps, verify_dps,
)
from polysched.fileio import (
    ParseError,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_schedule,
)
from polysched.generators import (
    figure1,
    figure1_schedule,
    generate,
    pentagon,
    petersen_unit,
    pinwheel_star,
    tadpole,
    triangle_f2,
    unweighted_fig4,
)
from polysched.satred import compile_formula, demo_formula, synthesize_schedule


class TestGenerators:
    def test_figure1_shape(self):
        inst = figure1()
        assert inst.n == 8 and inst.m == 10
        assert sorted(int(g) for g in inst.growth) == sorted(
            [40, 80, 16, 20, 40, 40, 40, 80, 16, 80])

    def test_figure1_schedule_is_optimal_fixture(self):
        assert heat(figure1(), figure1_schedule()) == 160
        assert verify_dps(ops_to_dps(figure1(), 160), figure1_schedule()) is None

    def test_fig4_unweighted(self):
        inst = unweighted_fig4()
        assert inst.n == 8 and inst.m == 9
        assert set(inst.growth) == {1}
        assert inst.max_degree == 3

    def test_pentagon(self):
        inst = pentagon()
        assert inst.n == 5 and inst.m == 5
        assert sorted(inst.freq) == [2, 3, 3, 3, 3]

    def test_tadpole_structure(self):
        inst = tadpole(3, 3)
        assert inst.freq == (2, 3, 3, 3, 3, 3)
        assert inst.n == 6

    def test_tadpole_f2_warns(self):
        with pytest.warns(UserWarning):
            tadpole(1, 2)

    def test_tadpole_validation(self):
        with pytest.raises(ValueError):
            tadpole(-1, 3)
        with pytest.raises(ValueError):
            tadpole(2, 1)

    def test_pinwheel_star(self):
        inst = pinwheel_star(2, 3, 6)
        assert inst.n == 4
        assert all(a == 0 for a, _ in inst.edges)

    def test_triangle(self):
        assert triangle_f2().freq == (2, 2, 2)

    def test_generate_dispatch(self):
        assert generate("figure1").m == 10
        assert generate("tadpole", k=1, big_f=3).m == 4
        assert generate("pinwheel-star", freqs=(2, 3, 4)).m == 3
        with pytest.raises(ValueError, match="unknown instance family"):
            generate("nope")

    def test_petersen(self):
        inst = petersen_unit()
        assert inst.n == 10 and inst.m == 15
        assert all(d == 3 for d in inst.degrees())


class TestFileRoundTrip:
    def test_ops_bytes_stable(self):
        text = emit_instance(figure1())
        again = emit_instance(parse_instance(text))
        assert text == again
        assert parse_instance(text) == figure1()

    def test_dps_bytes_stable(self):
        text = emit_instance(pentagon())
        assert emit_instance(parse_instance(text)) == text

    def test_rational_growth_round_trip(self):
        inst = OpsInstance(2, ((0, 1),), ("7/6",))
        text = emit_instance(inst)
        assert "7/6" in text
        assert parse_instance(text) == inst

    def test_schedule_round_trip(self):
        inst = figure1()
        text = emit_schedule(inst, figure1_schedule())
        sched = parse_schedule(inst, text)
        assert sched == figure1_schedule()
        assert emit_schedule(inst, sched) == text

    def test_zero_growth_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("ops 2 1\n0 1 0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("dps 3 2\n0 1 2\n1 0 3\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_instance("ops 2 1\n0 1 bogus\n")
        assert err.value.line == 2

    def test_unknown_edge_in_schedule(self):
        inst = DpsInstance(3, ((0, 1),), (2,))
        with pytest.raises(ParseError):
            parse_schedule(inst, "sched 1\n1-2\n")

    def test_empty_days_preserved(self):
        inst = DpsInstance(2, ((0, 1),), (3,))
        text = "sched 3\n0-1\n\n\n"
        sched = parse_schedule(inst, text)
        assert sched.days[1] == frozenset()
        assert emit_schedule(inst, sched) == text


# edge indices 0..3 are 2-3, 0-1, 1-2, 0-3: token order is not index order
SPELLING_INSTANCE = DpsInstance(4, ((2, 3), (0, 1), (1, 2), (0, 3)), (2, 2, 2, 2))


@pytest.mark.parametrize("text, days", [
    ("sched 2\n1-0\n3-2\n", [{1}, {0}]),
    ("sched 2\n01-2\n0-1 2-003\n", [{2}, {0, 1}]),
    ("sched 1\n0-1 0-1 1-0\n", [{1}]),
    ("sched 2\n0-1 +1-2\n3-0\n", [{1, 2}, {3}]),
], ids=["reversed", "leading-zero", "duplicated", "signed"])
def test_schedule_token_spellings(text, days):
    """Non-canonical spellings of an edge read as the edge itself."""
    expected = PeriodicSchedule(len(days), tuple(frozenset(d) for d in days))
    assert parse_schedule(SPELLING_INSTANCE, text) == expected


@pytest.mark.parametrize("text, message, line", [
    ("sched 3\n0-1\n\n0-9\n", "line 4: edge '0-9' not in instance", 4),
    ("sched 3\n0-1\n1-0 2-3\n2-3 1-3\n", "line 4: edge '1-3' not in instance", 4),
    ("sched 2\n0-1\nx-y\n", "line 3: bad edge token 'x-y'", 3),
    ("sched 2\n0-1-2\n0-1\n", "line 2: bad edge token '0-1-2'", 2),
    ("sched 1\n1-1\n", "line 2: bad edge token '1-1'", 2),
    ("sched 1\n0-1 01\n", "line 2: bad edge token '01'", 2),
], ids=["unknown", "unknown-after-reversed", "malformed", "three-part", "self-loop", "no-dash"])
def test_schedule_token_errors(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_schedule(SPELLING_INSTANCE, text)
    assert str(err.value) == message and err.value.line == line


def test_large_schedule_bytes_stable():
    formula = demo_formula()
    art = compile_formula(formula)
    text = emit_schedule(art.dps, synthesize_schedule(art, first_reaching_assignment(formula)))
    assert art.dps.m == 1462
    assert emit_schedule(art.dps, parse_schedule(art.dps, text)) == text


VALID_OPS = "ops 2 1\n0 1 1\n"

# (instance text, schedule text or None, message, line); a schedule case
# reads its schedule against VALID_OPS
MALFORMED = {
    "empty": ("", None, "empty instance file", 1),
    "bad-header": ("opz 2 1\n0 1 1\n", None, "expected header 'ops n m' or 'dps n m'", 1),
    "short-header": ("ops 2\n0 1 1\n", None, "expected header 'ops n m' or 'dps n m'", 1),
    "non-integer-n": ("ops two 1\n0 1 1\n", None, "n and m must be integers", 1),
    "non-integer-m": ("dps 2 1.0\n0 1 1\n", None, "n and m must be integers", 1),
    "too-few-lines": ("ops 3 3\n0 1 1\n\n1 2 1\n\n", None, "expected 3 edge lines, found 2", 4),
    "too-many-lines": ("ops 3 1\n0 1 1\n1 2 1\n", None, "expected 1 edge lines, found 2", 3),
    "no-edge-lines": ("ops 3 1\n", None, "expected 1 edge lines, found 0", 1),
    "field-count": ("ops 3 2\n0 1 1\n1 2\n", None, "expected 'a b value'", 3),
    "non-integer-endpoint": ("dps 3 2\n0 1 2\n1 b 2\n", None, "endpoints must be integers", 3),
    "growth-x": ("ops 3 2\n0 1 1\n1 2 x\n", None, "bad growth rate 'x'", 3),
    "growth-1/0": ("ops 3 2\n0 1 1/0\n1 2 1\n", None, "bad growth rate '1/0'", 2),
    "growth-exponent": ("ops 3 2\n0 1 1\n1 2 1e4301\n", None, "bad growth rate '1e4301'", 3),
    "growth-negative-exponent": ("ops 3 2\n0 1 1e-4301\n1 2 1\n", None,
                                 "bad growth rate '1e-4301'", 2),
    "frequency-x": ("dps 3 1\n0 1 x\n", None, "bad frequency 'x'", 2),
    "frequency-1/2": ("dps 3 1\n0 1 1/2\n", None, "bad frequency '1/2'", 2),
    "token-before-rule": ("ops 3 2\n1 1 1\n0 1 x\n", None, "bad growth rate 'x'", 3),
    "self-loop": ("ops 3 2\n0 1 1\n2 2 1\n", None, "self-loop on person 2", 3),
    "out-of-range": ("dps 3 3\n0 1 2\n1 3 2\n0 2 2\n", None,
                     "edge (1,3) out of range for 3 persons", 3),
    "negative-endpoint": ("dps 3 2\n0 1 2\n\n2 -1 2\n", None,
                          "edge (-1,2) out of range for 3 persons", 4),
    "repeated": ("dps 3 3\n0 1 2\n1 2 2\n0 1 3\n", None,
                 "duplicate edge (0,1); graph must be simple", 4),
    "repeated-reversed": ("dps 3 3\n0 1 2\n1 2 2\n1 0 3\n", None,
                          "duplicate edge (0,1); graph must be simple", 4),
    "zero-growth": ("ops 3 2\n0 1 1\n1 2 0\n", None, "growth rates must be strictly positive", 3),
    "negative-growth": ("ops 3 2\n0 1 -1/2\n1 2 1\n", None,
                        "growth rates must be strictly positive", 2),
    "zero-frequency": ("dps 3 2\n0 1 2\n1 2 0\n", None, "frequencies must be integers >= 1", 3),
    "negative-n": ("dps -1 0\n", None, "person count -1 is negative", 1),
    "sched-empty": (VALID_OPS, "", "empty schedule file", 1),
    "sched-bad-header": (VALID_OPS, "schedule 1\n0-1\n", "expected header 'sched T'", 1),
    "sched-non-integer": (VALID_OPS, "sched one\n0-1\n", "T must be an integer", 1),
    "sched-day-count": (VALID_OPS, "sched 2\n0-1\n", "expected 2 day lines, found 1", 2),
    "sched-0": (VALID_OPS, "sched 0\n", "period must be >= 1", 1),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_names_its_line(case, tmp_path, capsys):
    """Each malformed file raises a ParseError at its own line, and the CLI
    exits 65 naming the file."""
    instance_text, schedule_text, message, line = MALFORMED[case]
    with pytest.raises(ParseError) as err:
        if schedule_text is None:
            parse_instance(instance_text)
        else:
            parse_schedule(parse_instance(instance_text), schedule_text)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line

    instance, schedule = tmp_path / "case.inst", tmp_path / "case.sched"
    instance.write_text(instance_text)
    schedule.write_text("sched 1\n\n" if schedule_text is None else schedule_text)
    bad = instance if schedule_text is None else schedule
    assert main(["verify", str(instance), str(schedule)]) == EX_PARSE
    assert capsys.readouterr().err == f"error: {bad}: line {line}: {message}\n"


# Fraction would expand these exponents exactly, for hours, in C code that
# SIGALRM cannot interrupt; so the CLI runs in a subprocess with a timeout
@pytest.mark.parametrize("token", ["1e999999999", "1e-999999999"])
def test_huge_decimal_exponent_exits_65_at_its_line(token, tmp_path):
    instance = tmp_path / "huge.ops"
    instance.write_text(f"ops 3 2\n0 1 1\n1 2 {token}\n")
    done = subprocess.run(
        [sys.executable, "-m", "polysched.cli", "bound", str(instance), "--method", "trivial"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == EX_PARSE
    assert done.stderr == f"error: {instance}: line 3: bad growth rate {token!r}\n"


def test_as_rational_bounds_the_decimal_exponent():
    assert as_rational("1e4300") == 10 ** 4300
    assert as_rational("2.5e-4300") == Fraction(25, 10 ** 4301)
    for token in ("1e4301", "1E-4301"):
        with pytest.raises(ValueError, match=f"^decimal exponent of '{token}' exceeds 4300$"):
            as_rational(token)
    script = ("from polysched.core import as_rational\n"
              "for token in ('1e999999999', '1e-999999999'):\n"
              "    try:\n"
              "        as_rational(token)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout == ("decimal exponent of '1e999999999' exceeds 4300\n"
                           "decimal exponent of '1e-999999999' exceeds 4300\n")


# derandomized, so every run checks the same examples
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    n = draw(st.integers(0, 7))
    pool = [(a, b) if draw(st.booleans()) else (b, a) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.permutations(pool))[:draw(st.integers(0, len(pool)))]
    if draw(st.booleans()):
        growth = [Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12))) for _ in edges]
        return OpsInstance(n, edges, growth)
    return DpsInstance(n, edges, [draw(st.integers(1, 30)) for _ in edges])


@PROPERTY
@given(instances())
def test_emit_parse_round_trip(instance):
    text = emit_instance(instance)
    assert parse_instance(text) == instance
    assert emit_instance(parse_instance(text)) == text


# replacement tokens: value and count spellings, words, and short strings of
# digits and signs (no exponent, so no token asks for a huge number)
TOKENS = (st.sampled_from(["", "x", "ops", "dps", "1/0", "0/3", "-2/3", "7/6", "1.5", "1e3"])
          | st.integers(-3, 12).map(str)
          | st.text(alphabet="0123456789-/x", max_size=4))


@PROPERTY
@given(instances(), st.data())
def test_single_token_mutation_parses_or_names_a_line(instance, data):
    """Replacing one token of a valid file either gives a file that parses or
    one whose ParseError names a line of the file; nothing else is raised."""
    lines = emit_instance(instance).splitlines()
    lineno = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[lineno].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
    lines[lineno] = " ".join(tokens)
    try:
        parse_instance("\n".join(lines) + "\n")
    except ParseError as err:
        assert 1 <= err.line <= len(lines)
