import pytest
from helpers import first_reaching_assignment

from polysched.core import DpsInstance, OpsInstance, PeriodicSchedule, heat, verify_dps, ops_to_dps
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
