import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from closure_oracle import coclone_fragment, fragment_contains
from helpers import lang, random_language
from lattice_oracle import (
    AND_XNOR3,
    FAMILY_CLONES,
    LIMIT_CLONES,
    SELFDUAL3,
    SELFDUAL_MONOTONE3,
    clone_base,
    dual_label,
    preserves,
)
from minsol import postlattice as pl
from minsol.errors import ParseError
from minsol.relations import (
    AND2,
    AND_OR3,
    AND_ORNOT3,
    DUALHORN3,
    DUP3,
    EQ2,
    F_REL,
    HORN3,
    IMPL,
    MAJ3,
    NAE3,
    NAND2,
    NOT1,
    ONE_IN_THREE,
    OR2,
    OR2F,
    OR_AND3,
    OR_ANDNOT3,
    Language,
    Relation,
    T_REL,
    XNOR3,
    XOR2,
    XOR3,
    code_bits,
    even_rel,
    nand_rel,
    odd_rel,
    or_rel,
    projection_width,
    tuple_code,
)

CLASSIFY_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "classify_pool.json"


def clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("minsol."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    value.cache_clear()


# (language, co-clone) conformance rows: known generating sets for the
# lattice nodes; every base of arity <= 4 appears.
CONFORMANCE_ROWS = [
    (lang(eq=EQ2), "iBF"),
    (lang(f=F_REL), "iR0"),
    (lang(t=T_REL), "iR1"),
    (lang(f=F_REL, t=T_REL), "iR2"),
    (lang(impl=IMPL), "iM"),
    (lang(impl=IMPL, f=F_REL), "iM0"),
    (lang(impl=IMPL, t=T_REL), "iM1"),
    (lang(impl=IMPL, f=F_REL, t=T_REL), "iM2"),
    (lang(or2=OR2), "iS0^2"),
    (lang(or3=or_rel(3)), "iS0^3"),
    (lang(or4=or_rel(4)), "iS0^4"),
    (lang(nand2=NAND2), "iS1^2"),
    (lang(nand3=nand_rel(3)), "iS1^3"),
    (lang(nand4=nand_rel(4)), "iS1^4"),
    (lang(or2=OR2, f=F_REL, t=T_REL), "iS02^2"),
    (lang(or3=or_rel(3), f=F_REL, t=T_REL), "iS02^3"),
    (lang(or2=OR2, impl=IMPL), "iS01^2"),
    (lang(or3=or_rel(3), impl=IMPL), "iS01^3"),
    (lang(or2=OR2, impl=IMPL, f=F_REL, t=T_REL), "iS00^2"),
    (lang(or3=or_rel(3), impl=IMPL, f=F_REL, t=T_REL), "iS00^3"),
    (lang(nand2=NAND2, f=F_REL, t=T_REL), "iS12^2"),
    (lang(nand2=NAND2, impl=IMPL), "iS11^2"),
    (lang(nand3=nand_rel(3), impl=IMPL, f=F_REL, t=T_REL), "iS10^3"),
    (lang(xor2=XOR2), "iD"),
    (lang(xor2=XOR2, t=T_REL), "iD1"),
    (lang(xor2=XOR2, impl=IMPL), "iD2"),
    (lang(even4=even_rel(4)), "iL"),
    (lang(even3=even_rel(3)), "iL0"),
    (lang(even4=even_rel(4), f=F_REL), "iL0"),
    (lang(odd3=odd_rel(3)), "iL1"),
    (lang(even4=even_rel(4), t=T_REL), "iL1"),
    (lang(even4=even_rel(4), f=F_REL, t=T_REL), "iL2"),
    (lang(even4=even_rel(4), xor2=XOR2), "iL3"),
    (lang(dualhorn3=DUALHORN3), "iV"),
    (lang(dualhorn3=DUALHORN3, f=F_REL), "iV0"),
    (lang(dualhorn3=DUALHORN3, t=T_REL), "iV1"),
    (lang(dualhorn3=DUALHORN3, f=F_REL, t=T_REL), "iV2"),
    (lang(horn3=HORN3), "iE"),
    (lang(horn3=HORN3, f=F_REL), "iE0"),
    (lang(horn3=HORN3, t=T_REL), "iE1"),
    (lang(horn3=HORN3, f=F_REL, t=T_REL), "iE2"),
    (lang(dup3=DUP3), "iN"),
    (lang(nae3=NAE3), "iN2"),
    (lang(even4=even_rel(4), impl=IMPL), "iI"),
    (lang(even4=even_rel(4), impl=IMPL, f=F_REL), "iI0"),
    (lang(even4=even_rel(4), impl=IMPL, t=T_REL), "iI1"),
    (lang(one_in_three=ONE_IN_THREE), "BR"),
]


def closure(codes: set[int], op) -> set[int]:
    """The least superset of the tuple codes closed under a ternary bitwise op."""
    while True:
        new = {op(a, b, c) for a, b, c in itertools.product(codes, repeat=3)} - codes
        if not new:
            return codes
        codes |= new


# expected complexity classes per problem (NSOL, XSOL, MSD) for every node
# appearing in the conformance rows
VERDICT_SPOT_TABLE = {
    "iBF": ("PO", "PO", "PO"),
    "iR0": ("PO", "PO", "PO"),
    "iR1": ("PO", "PO", "PO"),
    "iR2": ("PO", "PO", "PO"),
    "iM": ("PO", "PO", "PO"),
    "iM0": ("PO", "PO", "PO"),
    "iM1": ("PO", "PO", "PO"),
    "iM2": ("PO", "PO", "PO"),
    "iD": ("PO", "PO", "PO"),
    "iD1": ("PO", "PO", "PO"),
    "iD2": ("APX_complete", "PO", "PO"),
    "iS0^2": ("APX_complete", "PO", "PO"),
    "iS0^3": ("APX_complete", "PO", "PO"),
    "iS0^4": ("APX_complete", "PO", "PO"),
    "iS1^2": ("APX_complete", "PO", "PO"),
    "iS1^3": ("APX_complete", "PO", "PO"),
    "iS1^4": ("APX_complete", "PO", "PO"),
    "iS00^2": ("APX_complete", "PO", "PO"),
    "iS00^3": ("APX_complete", "PO", "PO"),
    "iS01^2": ("APX_complete", "PO", "PO"),
    "iS01^3": ("APX_complete", "PO", "PO"),
    "iS02^2": ("APX_complete", "PO", "PO"),
    "iS02^3": ("APX_complete", "PO", "PO"),
    "iS10^3": ("APX_complete", "PO", "PO"),
    "iS11^2": ("APX_complete", "PO", "PO"),
    "iS12^2": ("APX_complete", "PO", "PO"),
    "iL": ("NCW_complete", "MinDist_complete", "MinDist_complete"),
    "iL0": ("NCW_complete", "MinDist_complete", "MinDist_complete"),
    "iL1": ("NCW_complete", "MinDist_complete", "MinDist_complete"),
    "iL2": ("NCW_complete", "MinDist_complete", "MinDist_complete"),
    "iL3": ("NCW_complete", "MinDist_complete", "MinDist_complete"),
    "iE": ("MinHD_complete", "MinHD_complete", "PO"),
    "iE0": ("MinHD_complete", "MinHD_complete", "PO"),
    "iE1": ("MinHD_complete", "MinHD_complete", "PO"),
    "iE2": ("MinHD_complete", "MinHD_complete", "PO"),
    "iV": ("MinHD_complete", "MinHD_complete", "PO"),
    "iV0": ("MinHD_complete", "MinHD_complete", "PO"),
    "iV1": ("MinHD_complete", "MinHD_complete", "PO"),
    "iV2": ("MinHD_complete", "MinHD_complete", "PO"),
    "iN": ("pAPX_complete", "pAPX", "pAPX"),
    "iN2": ("NPO_complete", "pAPX", "NPO_complete"),
    "iI": ("pAPX_complete", "pAPX", "pAPX"),
    "iI0": ("pAPX_complete", "NPO_complete", "NPO_complete"),
    "iI1": ("pAPX_complete", "NPO_complete", "NPO_complete"),
    "BR": ("NPO_complete", "NPO_complete", "NPO_complete"),
}


class TestClassify:
    @pytest.mark.parametrize("language,expected", CONFORMANCE_ROWS,
                             ids=[row[1] + "/" + "-".join(row[0].names()) for row in CONFORMANCE_ROWS])
    def test_conformance(self, language, expected):
        assert str(pl.classify(language)) == expected

    @pytest.mark.parametrize("language,expected", CONFORMANCE_ROWS,
                             ids=[row[1] + "/" + "-".join(row[0].names()) for row in CONFORMANCE_ROWS])
    def test_dual_conformance(self, language, expected):
        label = pl.CoCloneLabel.parse(expected)
        assert pl.classify(language.dualized()) == dual_label(label)

    def test_base_fixpoint(self):
        # every stored base generates exactly its node
        for label in pl.all_labels(5):
            base = Language(
                tuple((f"b{i}", r) for i, r in enumerate(pl.relation_base(label)))
            )
            assert pl.classify(base) == label

    def test_empty_language_is_bottom(self):
        assert pl.classify(Language(())) == pl.CoCloneLabel("iBF")

    def test_classify_pool_labels(self):
        # every benchmark pool language (arity 2-6) keeps its recorded label,
        # each classified from empty library caches
        pool = json.loads(CLASSIFY_POOL.read_text(encoding="utf-8"))["languages"]
        wrong = []
        for entry in pool:
            clear_library_caches()
            rels = entry["rels"]
            gamma = Language(tuple((f"r{j}", Relation(a, int(m, 16))) for j, (a, m) in enumerate(rels)))
            if str(pl.classify(gamma)) != entry["label"]:
                wrong.append((rels, entry["label"]))
        assert len(pool) == 3032 and not wrong

    def test_wide_relations(self):
        # each classified cold within 2 s: the generator tests and the width
        # are whole-set operations on the membership mask, whatever |r| is
        def padded(base: Relation, arity: int) -> Relation:
            """base on the first coordinates, every other coordinate free."""
            free = arity - base.arity
            return Relation(arity, sum(((1 << (1 << free)) - 1) << (c << free) for c in base.tuples()))

        cases = [(Relation(k, or_rel(k).mask & ~0b10), f"iS0^{k - 1}") for k in (12, 14, 16)]
        cases += [(padded(IMPL, 14), "iM"), (padded(EQ2, 13), "iBF"), (nand_rel(16), "iS1^16")]
        for r, expected in cases:
            clear_library_caches()
            t0 = time.perf_counter()
            label = pl.classify(Language((("r", r),)))
            assert time.perf_counter() - t0 < 2.0, expected
            assert str(label) == expected


class TestLatticeTable:
    def test_duality_involution(self):
        for label in pl.all_labels(6):
            assert dual_label(dual_label(label)) == label

    def test_order_reflexive_antisymmetric(self):
        labels = pl.all_labels(4)
        for a in labels:
            assert pl.label_leq(a, a)
        for a in labels:
            for b in labels:
                if a != b and pl.label_leq(a, b) and pl.label_leq(b, a):
                    pytest.fail(f"{a} and {b} mutually included")

    def test_unique_minimal_upper_bounds(self):
        # joins restricted to the stored sub-poset are unique where they
        # exist below the parameter cap
        labels = [l for l in pl.all_labels(3)]
        rng = random.Random(4)
        for _ in range(200):
            a, b = rng.choice(labels), rng.choice(labels)
            uppers = [c for c in pl.all_labels(4) if pl.label_leq(a, c) and pl.label_leq(b, c)]
            minimal = [c for c in uppers if all(
                not (pl.label_leq(d, c) and d != c) for d in uppers
            )]
            assert len(minimal) == 1, (str(a), str(b), list(map(str, minimal)))

    def test_unique_maximal_lower_bounds(self):
        labels = [l for l in pl.all_labels(4)]
        rng = random.Random(6)
        for _ in range(200):
            a, b = rng.choice(labels), rng.choice(labels)
            lowers = [c for c in labels if pl.label_leq(c, a) and pl.label_leq(c, b)]
            maximal = [c for c in lowers if all(
                not (pl.label_leq(c, d) and d != c) for d in lowers
            )]
            assert len(maximal) == 1, (str(a), str(b), list(map(str, maximal)))

    def test_duality_preserves_order(self):
        # dualization mirrors the lattice, so it preserves inclusion
        labels = pl.all_labels(4)
        rng = random.Random(5)
        for _ in range(300):
            a, b = rng.choice(labels), rng.choice(labels)
            assert pl.label_leq(a, b) == pl.label_leq(dual_label(a), dual_label(b))

    def test_order_matches_near_unanimity_galois_test(self):
        labels = pl.all_labels(5)
        for lower in labels:
            for upper in labels:
                want = preserves(clone_base(upper), pl.relation_base(lower))
                assert pl.label_leq(lower, upper) == want, (str(lower), str(upper))

    def test_projection_width_matches_near_unanimity(self):
        # r lies in fam^k iff the limit clone preserves r and its projection
        # width is at most k; the k-th clone base decides it by definition
        relations = [Relation(a, m) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))]
        rng = random.Random(11)
        for _ in range(150):
            seeds = set(rng.sample(range(16), rng.randint(2, 5)))
            if rng.random() < 0.5:
                codes = closure(seeds, lambda x, y, z: x | (y & z))
            else:
                codes = closure(seeds, lambda x, y, z: x & (y | z))
            relations.append(Relation.from_tuples(4, codes))
        outcomes = set()
        for r in relations:
            for fam, k in itertools.product(pl.PARAM_FAMILIES, (2, 3, 4)):
                member = preserves(FAMILY_CLONES[fam](k), [r])
                if preserves(LIMIT_CLONES[fam], [r]):
                    assert (projection_width(r) <= k) == member, (str(r), fam, k)
                    outcomes.add((r.arity, member))
                else:
                    assert not member, (str(r), fam, k)
        assert outcomes == {(1, True), (2, True), (3, True), (3, False), (4, True), (4, False)}

    def test_signatures_distinct(self):
        # 30 plain nodes plus fam^2 and fam^3 of the eight chains
        assert len(pl._SIGNATURES) == 46
        assert len(set(pl._SIGNATURES.values())) == 46

    def test_chain_signature_stops_at_three(self):
        # the (k+1)-ary near-unanimity function fam^k adds is not ternary
        # for k >= 3, so no generator tells fam^3 from fam^k
        for fam in pl.PARAM_FAMILIES:
            want = pl._SIGNATURES[fam, 3]
            for k in range(3, 17):
                assert pl._signature(pl.relation_base(pl.CoCloneLabel(fam, k))) == want, (fam, k)

    def test_dropped_generators_are_redundant(self):
        # each clone base function the signature leaves out lies in the clone
        # of a pair it keeps, so it preserves whatever the pair preserves
        replaced = {
            AND_XNOR3: (AND2, XOR3),  # x & (y <-> z) = x & xor3(x, y, z)
            SELFDUAL3: (MAJ3, NOT1),  # maj(x, -y, -z)
            SELFDUAL_MONOTONE3: (MAJ3, XOR3),  # maj(x, y, -z)
        }
        relations = [Relation(a, m) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))]
        rng = random.Random(16)
        relations += [Relation(4, rng.randrange(1, 1 << 16)) for _ in range(300)]
        relations += [Relation.from_tuples(4, closure(set(rng.sample(range(16), 3)), op))
                      for op in (lambda x, y, z: (x & y) | (x & z) | (y & z), lambda x, y, z: x ^ y ^ z)
                      for _ in range(50)]
        for dropped, pair in replaced.items():
            kept = [r for r in relations if preserves(pair, [r])]
            assert len(kept) > 20, str(dropped)
            assert all(preserves([dropped], [r]) for r in kept), str(dropped)

    def test_minor_facts_hold_on_truth_tables(self):
        # identifying arguments of a generator yields the minor the clone
        # facts name, and the minor comes first in the generator order
        identities = [
            (AND_OR3, (0, 1, 1), AND2),
            (AND_ORNOT3, (0, 1, 0), AND2),
            (OR_AND3, (0, 1, 1), OR2F),
            (OR_ANDNOT3, (0, 1, 0), OR2F),
            (XNOR3, (0, 0, 0), NOT1),
        ]
        for f, args, minor in identities:
            table = sum(
                f.value(tuple_code([code_bits(c, minor.arity)[j] for j in args])) << c
                for c in range(1 << minor.arity)
            )
            assert table == minor.table, str(f)
        # xnor3 also needs xor3, which it composes: xnor3(xnor3(x, y, z), z, z)
        composed = sum(XNOR3.value(tuple_code([XNOR3.value(c), c & 1, c & 1])) << c for c in range(8))
        assert composed == XOR3.table
        index = pl._GENERATORS.index
        want = {(index(f), index(minor)) for f, _, minor in identities} | {(index(XNOR3), index(XOR3))}
        got = {(i, j) for i, (minor, _) in pl._CLONE_FACTS.items() for j in range(16) if minor >> j & 1}
        assert got == want and all(j < i for i, j in got)

    def test_composition_facts_hold(self):
        # a generator whose composers all preserve a relation preserves it
        # too: it lies in the clone they generate
        relations = [Relation(a, m) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))]
        rng = random.Random(17)
        relations += [Relation(4, rng.randrange(1, 1 << 16)) for _ in range(300)]
        relations += [Relation.from_tuples(4, closure(set(rng.sample(range(16), 3)), op))
                      for op in (lambda x, y, z: x & y, lambda x, y, z: x | y, lambda x, y, z: x & (y | z),
                                 lambda x, y, z: 15 ^ x ^ y ^ z)
                      for _ in range(50)]
        composed = {i: c for i, (_, c) in pl._CLONE_FACTS.items() if c}
        assert {pl._GENERATORS[i] for i in composed} == {MAJ3, OR_AND3, AND_OR3, XNOR3}
        for i, composers in composed.items():
            pair = [f for j, f in enumerate(pl._GENERATORS) if composers >> j & 1]
            assert max(map(pl._GENERATORS.index, pair)) < i
            kept = [r for r in relations if preserves(pair, [r])]
            assert len(kept) > 20, str(pl._GENERATORS[i])
            assert all(preserves([pl._GENERATORS[i]], [r]) for r in kept), str(pl._GENERATORS[i])

    def test_pruned_signature_matches_every_test(self):
        # the clone facts skip tests but never change a bit
        rng = random.Random(18)
        languages = [(Relation(a, m),) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))]
        languages += [(Relation(a, rng.randrange(1, 1 << (1 << a))),) for a in (4, 5, 6) for _ in range(150)]
        languages += [(Relation.from_tuples(4, closure(set(rng.sample(range(16), 3)), op)),)
                      for op in (lambda x, y, z: x & y, lambda x, y, z: x | y, lambda x, y, z: x | (y & z),
                                 lambda x, y, z: (x & y) | (x & z) | (y & z), lambda x, y, z: x ^ y ^ z)
                      for _ in range(30)]
        singles = [r for (r,) in languages]
        languages += [tuple(rng.sample(singles, 2)) for _ in range(600)]
        languages += [pl.relation_base(label) for label in pl.all_labels(6)]
        seen = set()
        for rels in languages:
            want = sum(1 << i for i, f in enumerate(pl._GENERATORS) if preserves([f], rels))
            assert pl._signature(rels) == want, [str(r) for r in rels]
            seen.add(want)
        assert seen == set(pl._SIGNATURES.values())

    def test_parameter_validation(self):
        with pytest.raises(ParseError):
            pl.CoCloneLabel("iS00")  # family without parameter
        with pytest.raises(ParseError):
            pl.CoCloneLabel("iM2", 3)  # parameter on a plain node

    @pytest.mark.parametrize("text", ["bogus", "iS0^x", "iS0^", "iS0^2.5", "iX^3", "iM2^"])
    def test_labels_off_the_lattice_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            pl.CoCloneLabel.parse(text)

    def test_every_constructible_label_has_verdicts(self):
        with pytest.raises(ParseError):
            pl.CoCloneLabel("bogus")
        for label in map(pl.CoCloneLabel.parse, ("iBF", "iM2", "iS00^5", "iS12^17")):
            assert all(pl.verdict_for_label(label, p).problem == p for p in pl.PROBLEMS)


class TestVerdicts:
    def test_totality(self):
        for label in pl.all_labels(pl.MAX_FAMILY_PARAM):
            for problem in pl.PROBLEMS:
                v = pl.verdict_for_label(label, problem)
                assert v.complexity and v.algorithm_tag
        for fam in pl.PARAM_FAMILIES:
            assert pl.chain_width(pl.CoCloneLabel(fam, pl.MAX_FAMILY_PARAM)) == pl.MAX_FAMILY_PARAM

    @pytest.mark.parametrize("name,expected", sorted(VERDICT_SPOT_TABLE.items()))
    def test_spot_table(self, name, expected):
        label = pl.CoCloneLabel.parse(name)
        got = tuple(pl.verdict_for_label(label, p).complexity for p in ("NSOL", "XSOL", "MSD"))
        assert got == expected

    def test_specific_tags(self):
        assert pl.verdict(lang(even4=even_rel(4), f=F_REL, t=T_REL), "NSOL").algorithm_tag == "affine_exact"
        assert pl.verdict(lang(impl=IMPL, f=F_REL, t=T_REL), "NSOL").algorithm_tag == "monotone_mincut"
        assert pl.verdict(lang(nae3=NAE3), "MSD").algorithm_tag == "exhaustive_fallback"
        v = pl.verdict(lang(or3=or_rel(3), impl=IMPL, f=F_REL, t=T_REL), "NSOL")
        assert (v.algorithm_tag, v.param) == ("ihsb_rounding", 3)
        v = pl.verdict(lang(or2=OR2), "NSOL")
        assert v.algorithm_tag == "bijunctive_2approx"

    def test_decision_verdicts(self):
        assert pl.verdict(lang(dup3=DUP3), "SAT").complexity == "P"
        assert pl.verdict(lang(nae3=NAE3), "SAT").complexity == "NP_complete"
        assert pl.verdict(lang(nae3=NAE3), "ANOTHERSAT").complexity == "P"
        assert pl.verdict(lang(nae3=NAE3), "TSSAT").complexity == "NP_complete"
        assert pl.verdict(lang(even4=even_rel(4), impl=IMPL, f=F_REL), "ANOTHERSAT").complexity == "NP_complete"


    def test_table_matches_case_analyses(self):
        for label in pl.all_labels(pl.MAX_FAMILY_PARAM):
            for p in pl.PROBLEMS:
                assert pl.verdict_for_label(label, p) == pl._VERDICTS[p](label), (str(label), p)
        with pytest.raises(ParseError):
            pl.verdict_for_label(pl.CoCloneLabel("iM2"), "MAXSAT")


class TestFragment:
    def test_equality_language(self):
        frag = coclone_fragment(lang(eq=EQ2), 2)
        full1, full2 = Relation(1, 0b11), Relation(2, 0b1111)
        assert frag == {EQ2, full1, full2}

    def test_or2_fragment_misses_impl(self):
        frag = coclone_fragment(lang(or2=OR2), 2)
        assert OR2 in frag and IMPL not in frag

    def test_dup3_fragment_has_no_units(self):
        frag = coclone_fragment(lang(dup3=DUP3), 1)
        assert T_REL not in frag and F_REL not in frag

    def test_chain_stabilizes_at_arity_bound(self):
        # an arity-n member of the hitting-set chain never needs a wider
        # parameter than n: the n+1 search bound is validated by membership
        assert fragment_contains(lang(or3=or_rel(3)), OR2)
        label = pl.classify(lang(or3=or_rel(3)))
        assert label == pl.CoCloneLabel("iS0", 3)

    def test_random_cross_check(self):
        rng = random.Random(71)
        for _ in range(30):
            gamma = random_language(rng)
            label = pl.classify(gamma)
            base = pl.relation_base(label)
            for rel in base:
                if rel.arity <= 3:
                    assert fragment_contains(gamma, rel), (str(label), str(rel))
            base_lang = Language(tuple((f"b{i}", r) for i, r in enumerate(base)))
            for rel in gamma.members():
                assert fragment_contains(base_lang, rel), (str(label), str(rel))
