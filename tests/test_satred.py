import hashlib
import itertools
from fractions import Fraction

import pytest
from helpers import count_satisfied, small_formula_family

from polysched.core import DpsInstance, PeriodicSchedule, heat, verify_dps
from polysched.fileio import emit_schedule
from polysched.satred import (
    CnfFormula,
    SynthesisRefused,
    check_all_gadgets,
    compile_formula,
    emit_dimacs,
    extract_assignment,
    demo_formula,
    gadget_local_check,
    gap_instance,
    max3sat_oracle,
    parse_dimacs,
    synthesize_schedule,
)
from polysched.satred.build import (
    CompileError,
    _Builder,
    _validate,
    comparator_order,
    density_one_persons,
)
from polysched.satred.gadgetcheck import (
    _and2_scenarios,
    _d3_scenarios,
    _d12_scenarios,
    _Model,
    _or2_scenarios,
    _or_scenarios,
    _scenario,
    _swap_scenarios,
    _variable_scenarios,
)
from polysched.satred.tiling import PERIOD, SLOT, class_phases, phase_color


def _reduction_digests(formula):
    """sha256 of the compiled provenance and, per assignment, of the synthesized
    schedule with the assignment read back, or the refusal message."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    art = compile_formula(formula)
    got = {}
    for assignment in itertools.product((False, True), repeat=formula.num_vars):
        key = "".join("01"[v] for v in assignment)
        try:
            schedule = synthesize_schedule(art, assignment)
        except SynthesisRefused as exc:
            got[key] = str(exc)
        else:
            got[key] = (digest(emit_schedule(art.dps, schedule)),
                        extract_assignment(art, schedule))
    return digest("\n".join(art.provenance_lines())), got


# reduction shapes the demo formula lacks, as (num_vars, clauses, k,
# provenance digest, per-assignment digests): two Tension gadgets; k = 0;
# one clause, so no B12 splitter; x1 copied by a 2-row literal chain
PINNED_SHAPES = [
    (4, ((1, 2, 3), (-1, 4), (2, -3, -4), (1, -2), (3, 4, -1)), 5,
     "2086ec3adf30ee7e43a95aedfec158aba1facedf5a3d69c9199a8cf197d1eb25", {
         "0000": "assignment satisfies 4 < k=5 clauses",
         "0001": "assignment satisfies 4 < k=5 clauses",
         "0010": ("193569bce97760c210d03c10f3566302d69a923f4a5826d999e78d04f522a01d",
                (False, False, True, False)),
         "0011": "assignment satisfies 4 < k=5 clauses",
         "0100": "assignment satisfies 4 < k=5 clauses",
         "0101": "assignment satisfies 4 < k=5 clauses",
         "0110": "assignment satisfies 4 < k=5 clauses",
         "0111": "assignment satisfies 4 < k=5 clauses",
         "1000": "assignment satisfies 3 < k=5 clauses",
         "1001": ("fdeeac29cf5c850a3c795f0bab4d3f5ef17e38e222777f732ceae51a074a88b0",
                (True, False, False, True)),
         "1010": "assignment satisfies 4 < k=5 clauses",
         "1011": "assignment satisfies 4 < k=5 clauses",
         "1100": "assignment satisfies 3 < k=5 clauses",
         "1101": ("bd9a07832b7e06a4a654af3b9ead3ceb29a51a4608a1275177b58431747e8a4c",
                (True, True, False, True)),
         "1110": "assignment satisfies 4 < k=5 clauses",
         "1111": ("dd840b78225bc1ca425bd1d7becf365c5479aa82b97d3b4858533986c58755ac",
                (True, True, True, True)),
     }),
    (2, ((1, 2), (-1,), (-2,)), 0,
     "eecb96409b0c65696eaf89623ca19151764620eb00fbddb10544594f253f2b10", {
         "00": ("d2a7b3ca2f4ab78931f9cc9a038d96a51d5ce7fab8136145d7b5477bfa336b10",
                (False, False)),
         "01": ("de7fcdcae9a36e30799a030343fb2efa843d5debf42cba663f802fabb7bb29ae",
                (False, True)),
         "10": ("8f95d71f70de171aa84c331cb6a1462aea0cc961c9fb006adb55e9fe64fe3cfc",
                (True, False)),
         "11": ("c92f00f6915f4db3625332d74ca620a616067ab47581df2ad0b9b4abc025eb36",
                (True, True)),
     }),
    (2, ((1, -2),), 1,
     "ce1ef0df6e526e1d383893480b03494df8f41d98b8d7db4ecd7bd3050c7b956e", {
         "00": ("fde15a79fcd6a9a27b721d84c5e912ba8c90433b16e7276aa2eedf284852ba21",
                (False, False)),
         "01": "assignment satisfies 0 < k=1 clauses",
         "10": ("522c1783a818dc8d594b42cdba5089b3864d1d12ebee719a4dac12cd7d1e30f4",
                (True, False)),
         "11": ("e0068ec78857af7806b39c6a65959b29537d1f375f47f442d4e53e9813f3205e",
                (True, True)),
     }),
    (4, ((1, 2), (1, 3), (1, -4), (1, -2, 4)), 4,
     "3eb3054bbf867325f3a27668d25c54ccc6d7efad09b725ed0e3eb8e1afcaf4e3", {
         "0000": "assignment satisfies 2 < k=4 clauses",
         "0001": "assignment satisfies 1 < k=4 clauses",
         "0010": "assignment satisfies 3 < k=4 clauses",
         "0011": "assignment satisfies 2 < k=4 clauses",
         "0100": "assignment satisfies 2 < k=4 clauses",
         "0101": "assignment satisfies 2 < k=4 clauses",
         "0110": "assignment satisfies 3 < k=4 clauses",
         "0111": "assignment satisfies 3 < k=4 clauses",
         "1000": ("cef3e41be0e517215b63b8b950b5e82b12f6f23c274c6fcea35b9d48c2ff645e",
                (True, False, False, False)),
         "1001": ("484bfcd87a8b459b2e0dba8657b22b6790b26a42506dea9fc976ff6762a38db2",
                (True, False, False, True)),
         "1010": ("c444f6d3cdf2d3b3c569c83625337aa668266a014d7dca28ea6d20166c4987de",
                (True, False, True, False)),
         "1011": ("4e60e9f1278e6841172d9a3a2af82b22d5fa78e0d4e66990b78e982b698c967d",
                (True, False, True, True)),
         "1100": ("ba898bf6673648afa8124fb8b114e4801ca4eadc549d1ad122a4cb8ed1f26693",
                (True, True, False, False)),
         "1101": ("38aa5db592041fa3caabc382490560c2b2ee6164b614a5a679ab187c67d95037",
                (True, True, False, True)),
         "1110": ("49cac26f75be2aa0ddc032b9d1bd449a54c7769db89cbaa2cbdc9ec3f011a6bf",
                (True, True, True, False)),
         "1111": ("a55fb1eacf85abd8fa371935ded2da805c1a683ca066c443de861aa037f49dc1",
                (True, True, True, True)),
     }),
]


def formula_family():
    return small_formula_family()


class TestCnf:
    def test_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((),), 0)  # empty clause
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 1),), 1)  # duplicate literal
        with pytest.raises(ValueError):
            CnfFormula(1, ((2,),), 1)  # out of range
        with pytest.raises(ValueError):
            CnfFormula(1, ((1,),), 2)  # threshold too high

    def test_oracle_demo_formula_is_three(self):
        assert max3sat_oracle(demo_formula()) == 3

    def test_oracle_empty(self):
        assert max3sat_oracle(CnfFormula(0, (), 0)) == 0

    def test_oracle_contradiction(self):
        assert max3sat_oracle(CnfFormula(1, ((1,), (-1,)), 1)) == 1

    def test_oracle_matches_independent_count(self):
        for formula in formula_family()[:30]:
            best = max(
                count_satisfied(formula.clauses, bits)
                for bits in itertools.product((False, True), repeat=formula.num_vars)
            )
            assert max3sat_oracle(formula) == best

    def test_dimacs_round_trip(self):
        f = demo_formula()
        again = parse_dimacs(emit_dimacs(f), k=f.k)
        assert again == f


class TestCompile:
    def test_frequencies_and_top(self):
        art = compile_formula(demo_formula())
        assert set(art.dps.freq) <= {3, 6, 9, 12}
        assert art.dps.max_freq == 12

    def test_density_one_loads_exact(self):
        art = compile_formula(demo_formula())
        load = [Fraction(0)] * art.dps.n
        for (a, b), f in zip(art.dps.edges, art.dps.freq):
            load[a] += Fraction(1, f)
            load[b] += Fraction(1, f)
        dense = density_one_persons(art)
        assert dense and all(load[p] == 1 for p in dense)

    def test_size_polynomial_in_formula(self):
        # node count <= c1*(n'+m) + c2*m^2, the quadratic part from sorting
        for formula in formula_family()[:20]:
            art = compile_formula(formula)
            n_prime, m = formula.num_vars, formula.num_clauses
            assert art.dps.n <= 260 * (n_prime + m) + 60 * m * m

    def test_demo_formula_fixture_counts(self):
        art = compile_formula(demo_formula())
        assert (art.dps.n, art.dps.m) == (859, 1462)

    def test_compile_is_deterministic(self):
        a1 = compile_formula(demo_formula())
        a2 = compile_formula(demo_formula())
        assert a1.dps == a2.dps
        assert a1.provenance_lines() == a2.provenance_lines()

    @pytest.mark.parametrize("persons, freqs, message", [
        # a star from person 0; (label, density-1) per person, one frequency per leaf
        ((("a", True), ("b", False), ("c", False)), (6, 3),
         "density-1 person a has load 1/2"),
        ((("a", False), ("b", False), ("c", False)), (5, 3),
         "emitted a frequency outside {3, 6, 9, 12}"),
        ((("Pendant0.p", False), ("b", False), ("c", False), ("d", False)), (3, 3, 3),
         "pendant Pendant0.p overloaded"),
    ])
    def test_validate_rejects(self, persons, freqs, message):
        b = _Builder(CnfFormula(0, (), 0))
        for label, dense in persons:
            b.person(label, dense)
        edges = tuple((0, leaf) for leaf in range(1, len(persons)))
        with pytest.raises(CompileError) as info:
            _validate(b, DpsInstance(len(persons), edges, freqs))
        assert str(info.value) == message

    def test_consume_errors_name_the_pool_and_port(self):
        b = _Builder(CnfFormula(0, (), 0))
        g = b.gadget("OR", "clause")
        p = b.person("p", False)
        with pytest.raises(CompileError, match=r"^pool lit@\(1, 1\) ran dry at OR0:lit0$"):
            b.consume("lit", g, "lit0", p, (1, 1))
        b.produce("R3", g, "out", p)  # a port on the consumer itself is never compatible
        with pytest.raises(CompileError, match="^no compatible port in pool R3 at OR0:in$"):
            b.consume("R3", g, "in", p)

    def test_comparator_network_sorts(self):
        # 0-1 principle: the comparator order must sort every binary input
        for m in range(1, 9):
            order = comparator_order(m)
            assert len(order) == m * (m - 1) // 2
            for bits in itertools.product((0, 1), repeat=m):
                vals = list(bits)
                for _, c in order:
                    left, right = vals[c - 1], vals[c]
                    vals[c - 1], vals[c] = max(left, right), min(left, right)
                assert vals == sorted(bits, reverse=True)


class TestSynthesis:
    def test_round_trip_demo_formula(self):
        formula = demo_formula()
        art = compile_formula(formula)
        for assignment in itertools.product((False, True), repeat=3):
            if formula.count_satisfied(assignment) >= formula.k:
                schedule = synthesize_schedule(art, assignment)
                assert schedule.period == 36
                assert verify_dps(art.dps, schedule) is None
                back = extract_assignment(art, schedule)
                assert formula.count_satisfied(back) >= formula.k

    def test_single_variable_formula(self):
        formula = CnfFormula(1, ((1,),), 1)
        art = compile_formula(formula)
        schedule = synthesize_schedule(art, (True,))
        assert verify_dps(art.dps, schedule) is None
        assert extract_assignment(art, schedule) == (True,)

    def test_refusal_below_threshold(self):
        formula = demo_formula()
        art = compile_formula(formula)
        with pytest.raises(SynthesisRefused):
            synthesize_schedule(art, (True, True, True))  # satisfies only 2

    def test_rotation_invariance(self):
        formula = demo_formula()
        art = compile_formula(formula)
        assignment = (False, True, False)
        schedule = synthesize_schedule(art, assignment)
        for shift in (5, 17, 30):
            rotated = PeriodicSchedule(
                schedule.period,
                tuple(schedule.days[(t + shift) % schedule.period]
                      for t in range(schedule.period)),
            )
            assert extract_assignment(art, rotated) == assignment

    def test_synthesis_output_is_pinned(self):
        assert _reduction_digests(demo_formula()) == (
            "d417acd863fe5f6a53c80303fb70b5427f17d25617b33a45a90425bfca182f22", {
                "000": ("6cc6822f414d34eb421a23e6991ef91bd10e27b2056e5824725e90b892da7611",
                       (False, False, False)),
                "001": "assignment satisfies 2 < k=3 clauses",
                "010": ("374117be5a111a9009bda7f00fd841701c0c837e4eb64c11cde22d9c1518e854",
                       (False, True, False)),
                "011": ("2b2ea5a0a2aa3a97e8aea77625f664418e883aa78b211fa0171c4e184633ae67",
                       (False, True, True)),
                "100": ("8dd1b8cd8391fc84b798401d562897a9dad85af80e5bb155a76b268d88ef27a5",
                       (True, False, False)),
                "101": "assignment satisfies 2 < k=3 clauses",
                "110": ("2127c2222601a47e0aa585894724d6b9f5077459ccc72c01e4754d76cc18e2f4",
                       (True, True, False)),
                "111": "assignment satisfies 2 < k=3 clauses",
            })

    @pytest.mark.parametrize("num_vars, clauses, k, provenance, schedules", PINNED_SHAPES,
                             ids=["two-tensions", "k-zero", "one-clause", "two-row-chain"])
    def test_reduction_shapes_are_pinned(self, num_vars, clauses, k, provenance, schedules):
        formula = CnfFormula(num_vars, clauses, k)
        assert _reduction_digests(formula) == (provenance, schedules)

    def test_extraction_requires_valid_schedule(self):
        art = compile_formula(demo_formula())
        bogus = PeriodicSchedule(1, (frozenset(),))
        with pytest.raises(ValueError):
            extract_assignment(art, bogus)


class TestGapInstance:
    def test_synthesized_heat_at_most_one(self):
        formula = demo_formula()
        art = compile_formula(formula)
        ops = gap_instance(formula)
        schedule = synthesize_schedule(art, (False, True, False))
        assert heat(ops, schedule) <= 1

    def test_gap_factor_arithmetic(self):
        formula = demo_formula()
        art = compile_formula(formula)
        f_top = art.dps.max_freq
        assert Fraction(f_top + 1, f_top) == Fraction(13, 12)

    def test_k_zero_always_schedulable(self):
        formula = CnfFormula(1, ((1,), (-1,)), 0)
        art = compile_formula(formula)
        schedule = synthesize_schedule(art, (True,))
        assert verify_dps(art.dps, schedule) is None

    def test_degenerate_formulas_compile_and_schedule(self):
        for formula, assignment in (
            (CnfFormula(0, (), 0), ()),
            (CnfFormula(2, (), 0), (True, False)),
        ):
            art = compile_formula(formula)
            schedule = synthesize_schedule(art, assignment)
            assert verify_dps(art.dps, schedule) is None
            assert extract_assignment(art, schedule) == assignment


class TestTiling:
    @pytest.mark.parametrize("freq", [1, 2, 3, 4, 6, 9, 12, 18, 36])
    def test_slot_rule_matches_day_sets(self, freq):
        # oracle: a phase keeps to a colour iff its every day lies in that
        # colour's day set
        days = {c: {d for d in range(PERIOD) if d % mod == r} for c, (r, mod) in SLOT.items()}

        def keeps_to(phase, color):
            return set(range(phase, PERIOD, freq)) <= days[color]

        for phase in range(freq):
            assert phase_color(freq, phase) == next(
                (c for c in SLOT if keeps_to(phase, c)), None)
        for color in SLOT:
            assert class_phases(freq, color) == tuple(
                p for p in range(freq) if keeps_to(p, color))
        assert class_phases(freq, None) == tuple(range(freq))


class TestGadgetChecks:
    def test_all_twelve_kinds(self):
        verdicts = check_all_gadgets()
        assert len(verdicts) == 12
        for kind, verdict in verdicts.items():
            assert verdict.ok, f"{kind}: " + "; ".join(
                f"{s.name}: {s.detail}" for s in verdict.scenarios if not s.ok)
        counts = {kind: {s.name: s.solutions for s in verdict.scenarios}
                  for kind, verdict in verdicts.items()}
        assert counts == {
            "Variable": {"free": 2},
            "D3": {"red-input": 48, "blue-input": 48},
            "D6": {"purple-input": 2, "green-input": 2},
            "D12": {"free-input": 24},
            "OR": {"inputs-BBB": 48, "inputs-BBR": 80, "inputs-BRB": 80, "inputs-BRR": 144,
                   "inputs-RBB": 80, "inputs-RBR": 144, "inputs-RRB": 144, "inputs-RRR": 288},
            "Or2": {"inputs-BB": 80, "inputs-BG": 48, "inputs-GB": 48, "inputs-GG": 16},
            "And2": {"inputs-BB": 112, "inputs-BG": 32, "inputs-GB": 32, "inputs-GG": 16},
            "SB6": {"free": 2},
            "SB12": {"free": 24},
            "SG12": {"free": 2},
            "Swap": {"inputs-BB": 13312, "inputs-BG": 3072, "inputs-GB": 3072,
                     "inputs-GG": 2048},
            "Tension": {"free": 24},
        }

    def test_tension_forces_blue(self):
        verdict = gadget_local_check("Tension")
        assert verdict.ok and verdict.scenarios[0].solutions > 0

    def test_and_gate_blue_requires_blue_inputs(self):
        verdict = gadget_local_check("And2")
        by_name = {s.name: s for s in verdict.scenarios}
        assert by_name["inputs-BB"].ok
        assert by_name["inputs-GG"].ok

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gadget_local_check("Nonsense")


def _cases(scenarios):
    """Scenario name -> (model, predicates)."""
    return {name: (model, preds) for name, model, preds in scenarios}


def _edited(model, edits):
    """Copy of a gadget model; edits maps an edge name to replacements for
    its fields among name, a, b (endpoints) and domain."""
    out = _Model()
    for name, a, b, freq, domain in model.edges:
        fields = {"name": name, "a": a, "b": b, "domain": domain, **edits.get(name, {})}
        out.edges.append((fields["name"], fields["a"], fields["b"], freq, fields["domain"]))
    return out


def _judge(scenarios, model_case, predicate_case, edits=None):
    """One scenario's model, edited, judged by another scenario's predicates."""
    cases = _cases(scenarios)
    model = _edited(cases[model_case][0], edits or {})
    return _scenario(predicate_case, model, cases[predicate_case][1])


class TestGadgetPredicatesRejectWrongModels:
    """Every characterization fails on a model that breaks it, so a predicate
    weakened into accepting that model fails here."""

    def test_forced_rejects_a_free_copy_edge(self):
        # cut loose from n0, copy0 takes every phase: red stays among its
        # colours, but red is no longer forced
        result = _judge(_d3_scenarios(), "red-input", "red-input",
                        {"copy0": {"a": "loose1", "b": "loose2"}})
        assert not result.ok and "copy0 colors" in result.detail
        assert "R" in result.detail

    def test_same_color_rejects_a_free_output(self):
        result = _judge(_d12_scenarios(), "free-input", "free-input",
                        {"out2": {"a": "loose"}})
        assert not result.ok and "12-day edges split colors" in result.detail

    def test_both_realized_rejects_a_pinned_input(self):
        result = _judge(_d12_scenarios(), "free-input", "free-input",
                        {"in": {"domain": class_phases(12, "B")}})
        assert result.detail == "input should admit blue and green, got {'B'}"

    def test_both_orders_rejects_a_pinned_value_edge(self):
        result = _judge(_variable_scenarios(), "free", "free",
                        {"valB": {"domain": class_phases(3, "B")}})
        assert not result.ok and "must split red/blue both ways" in result.detail

    @pytest.mark.parametrize("model_case, predicate_case, message", [
        ("inputs-BBB", "inputs-RRR", "satisfied clause must admit a blue output"),
        ("inputs-RRR", "inputs-BBB", "out reached {'B'}"),
    ])
    def test_out_range_rejects_other_inputs(self, model_case, predicate_case, message):
        result = _judge(_or_scenarios(), model_case, predicate_case)
        assert not result.ok and message in result.detail

    def test_out_range_rejects_an_output_pinned_blue(self):
        result = _judge(_or_scenarios(), "inputs-RRR", "inputs-RRR",
                        {"out": {"domain": class_phases(12, "B")}})
        assert result.detail == "output must always admit green"

    @pytest.mark.parametrize("scenarios, model_case, predicate_case, message", [
        (_or2_scenarios, "inputs-GG", "inputs-BG", "blue output should be possible here"),
        (_or2_scenarios, "inputs-BB", "inputs-GG", "blue output must be impossible here"),
        (_and2_scenarios, "inputs-BG", "inputs-BB", "blue output should be possible here"),
        (_and2_scenarios, "inputs-BB", "inputs-BG", "blue output must be impossible here"),
    ])
    def test_out_ok_rejects_other_inputs(self, scenarios, model_case, predicate_case, message):
        result = _judge(scenarios(), model_case, predicate_case)
        assert result.detail == message

    @pytest.mark.parametrize("scenarios", [_or2_scenarios, _and2_scenarios])
    def test_out_ok_rejects_a_loose_output(self, scenarios):
        # cut loose from the gate, the output takes every phase
        result = _judge(scenarios(), "inputs-BB", "inputs-BB", {"out": {"a": "loose"}})
        assert not result.ok and result.detail.startswith("out reached ")

    def test_out_ok_rejects_an_output_pinned_blue(self):
        result = _judge(_or2_scenarios(), "inputs-BB", "inputs-BB",
                        {"out": {"domain": class_phases(12, "B")}})
        assert result.detail == "output must always admit green"

    def test_swap_predicates_reject_crossed_outputs(self):
        # the Or2 output named as the And2 output and the other way round
        crossed = {"out_or": {"name": "out_and"}, "out_and": {"name": "out_or"}}
        result = _judge(_swap_scenarios(), "inputs-BG", "inputs-BG", crossed)
        assert result.detail == ("and-output blue without both inputs blue; "
                                 "comparator outcome (B,G) unreachable")

    def test_outs_ok_rejects_a_red_output(self):
        # the And2 output cut loose onto one red phase
        result = _judge(_swap_scenarios(), "inputs-GG", "inputs-GG",
                        {"out_and": {"a": "loose", "domain": (0,)}})
        assert not result.ok and "outputs left blue/green: {'G'}, {'R'}" in result.detail

    def test_outs_ok_rejects_a_blue_or_output_from_green_inputs(self):
        result = _judge(_swap_scenarios(), "inputs-BG", "inputs-GG")
        assert not result.ok and "or-output blue without any blue input" in result.detail
