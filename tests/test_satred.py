import copy
import dataclasses
import hashlib
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import count_satisfied, small_formula_family

from polysched import cli
from polysched.core import DpsInstance, PeriodicSchedule, heat, verify_dps
from polysched.fileio import emit_schedule
from polysched.satred import (
    CnfFormula,
    ExtractionError,
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
    Port,
    _Builder,
    _validate,
    comparator_order,
    density_one_persons,
)
from polysched.satred.gadgetcheck import (
    _SCENARIOS,
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
from polysched.satred.tiling import (
    PERIOD,
    SLOT,
    class_phases,
    occ_mask,
    phase_color,
    solve,
    solve_first,
)


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


# the five formulas of the bound-and-reduce benchmark corpus (corpus seed 3,
# one per clause count), restated here, as (num_vars, clauses, k, provenance
# digest, per-assignment digests); the last compiles to 2,373 edges
CORPUS_FORMULAS = [
    (3, ((-3,),), 1,
     "e8079f331f12a4714f07dd3b10a301bc67e49c33551135431d9873a943b64d2b", {
         "000": ("809c7736d189f3da5a5fbfadad1fa84fbd9f3f5a459fcef99a8a9e79a0f17dff",
                (False, False, False)),
         "001": "assignment satisfies 0 < k=1 clauses",
         "010": ("5f0516d4225692bf2a5861bfacd19cd0ffa642222c2ec229c9107042e0f30ce5",
                (False, True, False)),
         "011": "assignment satisfies 0 < k=1 clauses",
         "100": ("eeeafc2007c4e40c7a01abd970efd577a77855b1dee59c652847805613176936",
                (True, False, False)),
         "101": "assignment satisfies 0 < k=1 clauses",
         "110": ("ee06450a67c348d5c0f5579f3cd74a2757a71302083fc140a5b75cda64fec777",
                (True, True, False)),
         "111": "assignment satisfies 0 < k=1 clauses",
     }),
    (4, ((-4, -3, 1), (-2, -1, 4)), 0,
     "3ddb63dd2266e42999872b1b453838e6d78bef1f469bb83c0a18ab7e4f639085", {
         "0000": ("a9cdbb1d0d5fb6b42d67f85f2141e1c678b6a49b7dde413688b9e10c419d6cb2",
                (False, False, False, False)),
         "0001": ("eae5d2c0b8d443341016f5dbfce0ddc2c97c28f6162206e59a7a8cac335885cc",
                (False, False, False, True)),
         "0010": ("2a87537e8fa1e0958e5ab06601a9e5fc4353eb5f841c068cb43f7b95fa0f4c8c",
                (False, False, True, False)),
         "0011": ("3e47ecdba52cf5b85be85d87e152e99fff5a0c4df3b8cf27316e9cff3aeb6b34",
                (False, False, True, True)),
         "0100": ("3a629120200aaec7d18d5e8be2402aff9d26c5fc640362333100807163483ed9",
                (False, True, False, False)),
         "0101": ("971d3b53ed477713b1ee24e57e75528056b4616845517e90f2daa84660b6f68b",
                (False, True, False, True)),
         "0110": ("48d64b78c9eeba47d9433cad01a59f21db3d257ae017bbf1a458de32940e4f56",
                (False, True, True, False)),
         "0111": ("6f15386aed7325fb758b631c4394a34b94af5c123a7fdc2e16a8af4e8784f877",
                (False, True, True, True)),
         "1000": ("624bcf1274b1ffc2ba4e1cfad1d904214e4516e78ccca738a4ebd44a85a8815c",
                (True, False, False, False)),
         "1001": ("29bed010b38ff69e2575f68c5702a58504aebf20ddccf87d85890127e75a04a5",
                (True, False, False, True)),
         "1010": ("18e36ba2e1272d58b39058a188d2e4fda7219b10e4010a322b06193c28c70ff5",
                (True, False, True, False)),
         "1011": ("c8bf0a7a2200c8efb99f2e642da0a98ceb389c1dc87f07c5c69726b98e1223dd",
                (True, False, True, True)),
         "1100": ("b546062bbc7aa610b3aea33e403c08d6f8afa0b767d1ef8099c9fe11f423074c",
                (True, True, False, False)),
         "1101": ("6f041a46c522c55896b94a6224d6a59b9437967c9acce76a1cac14389f6f121b",
                (True, True, False, True)),
         "1110": ("b4de3b3a4d64d8f3d17f32ed33ebdfcfe64fbb0d49ec0504bb833e4ac40904cb",
                (True, True, True, False)),
         "1111": ("2280f612016df73c46ba51b21ecfeeec16546cc495c64435270f961c64f13f2d",
                (True, True, True, True)),
     }),
    (3, ((3,), (2, -1, 3), (2,)), 3,
     "a8867dd4beaecd85495d582407007f90577c22058a02ac348757659c1a1ac70a", {
         "000": "assignment satisfies 1 < k=3 clauses",
         "001": "assignment satisfies 2 < k=3 clauses",
         "010": "assignment satisfies 2 < k=3 clauses",
         "011": ("48c194051cafacce57bdb9d59659b7e5b0099a8f6fc793f280c8edbba8f03b86",
                (False, True, True)),
         "100": "assignment satisfies 0 < k=3 clauses",
         "101": "assignment satisfies 2 < k=3 clauses",
         "110": "assignment satisfies 2 < k=3 clauses",
         "111": ("15210c6859ae88989409255ba7250d3c2aae9f5d0eb069960e34471eb7ad8b55",
                (True, True, True)),
     }),
    (4, ((-4, 2, 3), (2,), (-4, 3), (-3, -4)), 2,
     "6e7d3dcd70db52ce9b79f104d9e560a70ed13bb5d08ed09f92ce458d66043956", {
         "0000": ("706f1f68fd8e6ba95c08b8ebeb735e04f8776117f2cbcf4c9bc58eada5ef9f9e",
                (False, False, False, False)),
         "0001": "assignment satisfies 1 < k=2 clauses",
         "0010": ("2de40ef3059c3cf5e40cf510662f78aa529479531e4ed111fac9394dbfbf5dec",
                (False, False, True, False)),
         "0011": ("cc7f50f38792b10c53f27709289b85dae71d5eb9778593c361090b4b6cc7280c",
                (False, False, True, True)),
         "0100": ("7955aee6000c7f82bdb0da9d651b8516fa5bdf93a1f81e299e6840bd79108e1f",
                (False, True, False, False)),
         "0101": ("0c929697463fdf350051eb395b5877b0f62c2a2f0ca5cfa82a1109ff2261971a",
                (False, True, False, True)),
         "0110": ("b1f0eb100c439fbe3e3a8421af8ec252040be80ee9214fefb9516fd5445c32f2",
                (False, True, True, False)),
         "0111": ("21bf275f9cab027602df261c55ab4f98501c806a0cf82d50469435d63fa18add",
                (False, True, True, True)),
         "1000": ("9f417a99b09ba9565d63c80c119749241c7649b40ea6c2689ce074b80185a312",
                (True, False, False, False)),
         "1001": "assignment satisfies 1 < k=2 clauses",
         "1010": ("a591577fdaf4413781fb12e9f51ba59c1c665f7f3ed2692eb330349537ab27ca",
                (True, False, True, False)),
         "1011": ("ee04b6854f6e15247e9f8ea6a0b1ee9d6ec617964635b983c2b675c25a94aee2",
                (True, False, True, True)),
         "1100": ("fd00ecb0a49c66a5bb1e60a5245169b6e6def43c1282a15804ecfc8cbf25645b",
                (True, True, False, False)),
         "1101": ("46aa449b740386ce2f87b9f1457bcd99c29257a8ab26c4a827056843fabb1696",
                (True, True, False, True)),
         "1110": ("c4f5dfb1a072785888cc6000f1a0eeb1b2c9861708feebc7d81450df42b6c360",
                (True, True, True, False)),
         "1111": ("bd3341c4ef893f7e94b248f5af5c557d99853e7090cb282d497b0a7796d762c4",
                (True, True, True, True)),
     }),
    (3, ((-1, 2, -3), (-3, -1, 2), (1,), (-2, 1, 3), (-2, 3)), 4,
     "59543a8cbbb25ae79a8c7da0c26cb7ab7816137e91331098a62b914a5a58e8cf", {
         "000": ("597ca46ffb000890f28aa4fdf96736c5b096a86f1703608c124403f675e1fb7d",
                (False, False, False)),
         "001": ("6aab6a8cd448e7b6f95b70fc077b3c856ef06e2d3da5e7e1d579a7267e39e458",
                (False, False, True)),
         "010": "assignment satisfies 2 < k=4 clauses",
         "011": ("52caa060391b5422f585359fb9ae87c5a1fab2330fad94a6e2b503a6c115b3a1",
                (False, True, True)),
         "100": ("54a4c799ac19297122a5eb7813013ed427fe6d7bf50b0e738b6336e6a27b89ec",
                (True, False, False)),
         "101": "assignment satisfies 3 < k=4 clauses",
         "110": ("6a687db474bac310a95411da898584a953c23bce576660aecc704dfc24dc2d88",
                (True, True, False)),
         "111": ("37a5486f9e70d36400cf80391df9411ab450bc200639f55a19d302188f171b08",
                (True, True, True)),
     }),
]

SHAPE_IDS = ["two-tensions", "k-zero", "one-clause", "two-row-chain"]

# sha256 of each pinned formula's compiled artifact beyond its provenance
# (`_artifact_digest`)
ARTIFACT_DIGESTS = {
    "demo": "d73f99f7689fa1d193b2e0650e8f17c9209dedf38954630821253a418d07f00c",
    "two-tensions": "94eeb280548cd1054bfff0b209e068c02b27899b03cf147f468e4c2ef4ea0bc1",
    "k-zero": "35089f0b6a00c660f8b4dd3a3c065b019ffbacf7bc0f47a3a870e199a5a9130d",
    "one-clause": "1567b58ecddb7c3680ce7415abcf67fb32121c35522f088cfc837376052ad64a",
    "two-row-chain": "89af0be3314b3c70d0693565227cd80fdbaf794d2a51e2f5167a760a92d579e2",
    "corpus-1": "8e9fa8543085ad47efedb41174d83e7b171e7d59378fc5e95618c4b1619caedf",
    "corpus-2": "3ad8322b7a391eb98c702351ae4e80edb150fd91304f07c290e709782ec9e83e",
    "corpus-3": "248f58312fbbce6a8d2f99dabac16fdcc1f5a844725814cb299fa9cfa63a24bd",
    "corpus-4": "c52ef8aaa19bfe21b7bdcfae4b34877c10f402c322b61e3c2e36d87ce187f606",
    "corpus-5": "bbeeeba0ca6517920779a822b4b481bb1bad4f0b05cb240001e680f9c2afff10",
}


# sha256 of the `.prov` sidecar `reduce-sat` writes for each formula
SIDECAR_DIGESTS = {
    "demo": "9648a8605abe4500ed8a5ba139b80fa4bcb791bc07398d7a32d1150419c25239",
    "corpus-1": "aa7fb8337fe379d78d10dfc2f608c15014f74ea041cfdcf4351c99fa3e14120a",
    "corpus-2": "82f9a664b5dcd0b101739a15752fe4ab725bd27a279198d3001fb5eb8316207d",
    "corpus-3": "071bb4eea32a87e85271591b10d4dfa06ec0a029c2957452ba9a40779f33212b",
    "corpus-4": "2fdabe92faffd0c9187b0d1f36521903ce9ce0e7dc129baae98f304d5bbe9353",
    "corpus-5": "ceedc2923453927be590cbb01663349c506bfda94ad4af9098df8772c597abb5",
}

def _pinned_formula(name):
    if name == "demo":
        return demo_formula()
    specs = dict(zip(SHAPE_IDS, PINNED_SHAPES))
    specs.update((f"corpus-{i}", spec) for i, spec in enumerate(CORPUS_FORMULAS, start=1))
    num_vars, clauses, k = specs[name][:3]
    return CnfFormula(num_vars, clauses, k)


def _artifact_digest(art):
    """sha256 over every edge's colour, role and layer; every gadget's kind,
    persons, edges and meta; the person labels and density-1 flags; and the
    artifact's tables of clock, value, comparator, clause and channel edges."""
    def plain(x):
        if isinstance(x, Port):
            return [x.person, x.gid, x.name]
        if isinstance(x, dict):
            return [[plain(k), plain(v)] for k, v in x.items()]
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x

    parts = [
        [(r.color, r.role, r.layer) for r in art.edge_recs],
        [(g.kind, g.persons, g.edges, g.meta) for g in art.gadgets],
        art.person_labels, art.density1,
        art.clock_edges, art.var_value_edges, art.comparators, art.clause_out,
        art.channel_of_edge,
    ]
    return hashlib.sha256(json.dumps(plain(parts)).encode()).hexdigest()


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
         "non-density-1 person Pendant0.p has load 1"),
        # a spare that is not a pendant is held to the same limit
        ((("OR0.i0", False), ("b", False), ("c", False), ("d", False), ("e", False)),
         (3, 3, 6, 6), "non-density-1 person OR0.i0 has load 1"),
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
                             ids=SHAPE_IDS)
    def test_reduction_shapes_are_pinned(self, num_vars, clauses, k, provenance, schedules):
        formula = CnfFormula(num_vars, clauses, k)
        assert _reduction_digests(formula) == (provenance, schedules)

    @pytest.mark.parametrize("num_vars, clauses, k, provenance, schedules", CORPUS_FORMULAS,
                             ids=[f"corpus-{i}" for i in range(1, 6)])
    def test_corpus_reductions_are_pinned(self, num_vars, clauses, k, provenance, schedules):
        formula = CnfFormula(num_vars, clauses, k)
        assert _reduction_digests(formula) == (provenance, schedules)

    @pytest.mark.parametrize("name", list(ARTIFACT_DIGESTS))
    def test_compiled_artifact_is_pinned(self, name):
        art = compile_formula(_pinned_formula(name))
        assert _artifact_digest(art) == ARTIFACT_DIGESTS[name]

    @pytest.mark.parametrize("name", list(SIDECAR_DIGESTS))
    def test_sidecar_is_pinned(self, tmp_path, capsys, name):
        formula = _pinned_formula(name)
        cnf, dps = tmp_path / "f.cnf", tmp_path / "f.dps"
        cnf.write_text(emit_dimacs(formula))
        assert cli.main(["reduce-sat", "--cnf", str(cnf), "-k", str(formula.k),
                         "-o", str(dps)]) == 0
        prov = Path(f"{dps}.prov").read_bytes()
        assert hashlib.sha256(prov).hexdigest() == SIDECAR_DIGESTS[name]

    def test_doubled_schedule_extracts_the_same_assignment(self):
        art = compile_formula(demo_formula())
        assignment = (False, True, False)
        schedule = synthesize_schedule(art, assignment)
        doubled = PeriodicSchedule(2 * schedule.period, schedule.days * 2)
        assert extract_assignment(art, doubled) == assignment

    def test_clock_listed_under_another_colour_aligns_no_rotation(self):
        art = compile_formula(demo_formula())
        schedule = synthesize_schedule(art, (False, True, False))
        clock = dict(art.clock_edges)
        clock["B"] = clock.pop("G")  # the green clock edge listed as blue
        with pytest.raises(ExtractionError,
                           match="^no rotation aligns the clock to the slot classes$"):
            extract_assignment(dataclasses.replace(art, clock_edges=clock), schedule)

    def test_recoloured_edge_leaves_its_slots(self):
        art = compile_formula(demo_formula())
        schedule = synthesize_schedule(art, (False, True, False))
        clock = set(art.clock_edges.values())
        rec = next(r for r in art.edge_recs if r.color and r.index not in clock)
        other = {"R": "B", "B": "R", "G": "P", "P": "G"}[rec.color]
        recs = list(art.edge_recs)
        recs[rec.index] = rec._replace(color=other)
        message = (f"edge {rec.index} ({rec.role}) leaves its {other} slots; "
                   "the polycule forbids this, so the schedule data is inconsistent")
        with pytest.raises(ExtractionError, match=f"^{re.escape(message)}$"):
            extract_assignment(dataclasses.replace(art, edge_recs=recs), schedule)

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

    @pytest.mark.parametrize("base_masks", [
        [occ_mask(3, 0), 0, 0, occ_mask(12, 5)],
        {0: occ_mask(3, 0), 1: 0, 2: 0, 3: occ_mask(12, 5)},
        [(1 << PERIOD) - 1, 0, 0, 0],  # person 0 booked every day: no solution
    ], ids=["list", "dict", "unsolvable"])
    def test_solve_matches_brute_force_and_keeps_base_masks(self, base_masks):
        # a triangle of 6- and 12-day edges on persons 0-2, and a 12-day edge 2-3
        edges = [("ab", 0, 1, 6, (0, 2, 4, 5)), ("bc", 1, 2, 12, tuple(range(12))),
                 ("ca", 2, 0, 6, tuple(range(6))), ("cd", 2, 3, 12, (5, 3, 1))]
        before = copy.deepcopy(base_masks)

        def disjoint(phases):
            masks = [base_masks[p] for p in range(4)]
            for (_, a, b, freq, _), phase in zip(edges, phases):
                mask = occ_mask(freq, phase)
                for p in (a, b):
                    if masks[p] & mask:
                        return False
                    masks[p] |= mask
            return True

        brute = [dict(zip((key for key, *_ in edges), phases))
                 for phases in itertools.product(*(domain for *_, domain in edges))
                 if disjoint(phases)]
        solutions = list(solve(edges, base_masks))
        assert base_masks == before
        assert sorted(map(sorted, map(dict.items, solutions))) == \
            sorted(map(sorted, map(dict.items, brute)))
        first = solve_first(edges, base_masks)
        assert base_masks == before
        assert first == (solutions[0] if solutions else None)


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


# (gadget kind, model persons -> compiled person keys), for the models
# `gadgetcheck` enumerates; a Swap model is built from the D12, Or2 and And2
# parts, so it covers them as well
_MODEL_PERSONS = [
    ("Variable", {"x": "x"}),
    ("OR", {"or": "or", "i0": "i0", "i1": "i1", "i2": "i2"}),
    ("SB6", {"s": "s"}),
    ("SB12", {"s": "s"}),
    ("SG12", {"s": "s"}),
    ("D6", {"a": "a", "b": "b", "c": "c"}),
    ("D3", {"a": "a", "n0": "r1n0", "n1": "r1n1", "n2": "r1n2"}),
    ("Tension", {"T": "t"}),
    ("Swap", {p: p for p in ("I1", "D1", "I2", "D2", "V", "IV", "A", "IA")}),
]


class TestGadgetModelsMatchCompiled:
    """The models `check_all_gadgets` verifies are the gadgets `compile_formula`
    builds: each model person meets the frequencies of its compiled twin."""

    @pytest.mark.parametrize("kind, persons", _MODEL_PERSONS, ids=[k for k, _ in _MODEL_PERSONS])
    def test_person_frequencies(self, kind, persons):
        _, model, _ = next(iter(_SCENARIOS[kind]()))
        model_freqs = {}
        for _, a, b, freq, _ in model.edges:
            for p in (a, b):
                model_freqs.setdefault(p, []).append(freq)
        assert set(persons) == {p for p in model_freqs if not p.startswith("_ext")}

        art = compile_formula(demo_formula())
        compiled_freqs = [[] for _ in range(art.dps.n)]
        for (a, b), freq in zip(art.dps.edges, art.dps.freq):
            compiled_freqs[a].append(freq)
            compiled_freqs[b].append(freq)
        gadgets = [g for g in art.gadgets if g.kind == kind]
        assert gadgets
        for g in gadgets:
            for model_person, key in persons.items():
                assert sorted(compiled_freqs[g.persons[key]]) == \
                    sorted(model_freqs[model_person]), (g.name, key)


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
