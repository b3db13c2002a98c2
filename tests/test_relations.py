import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymorphism_oracle as oracle
from implicate_oracle import clause_allowed, decomposition_holds, minimal_implicates
from lattice_oracle import LIMIT_CLONES, PLAIN_CLONES
from minsol.errors import InternalConsistencyError, ParseError, ShapeUnavailable
from minsol.postlattice import _GENERATORS, CoCloneLabel, classify, label_leq
from minsol.relations import (
    AND2,
    AND_OR3,
    BUILTIN_RELATIONS,
    DUP3,
    F_REL,
    ID1,
    IMPL,
    MAJ3,
    NAE3,
    NOT1,
    OR2,
    OR2F,
    OR_AND3,
    Clause,
    Language,
    Relation,
    T_REL,
    XOR2,
    XOR3,
    BoolFunction,
    _prime_implicates,
    _verify_decomposition,
    cnf_decompose,
    code_bits,
    dualize,
    even_rel,
    is_polymorphism,
    load_language,
    membership_table,
    nand_rel,
    odd_rel,
    or_rel,
    parse_language,
    projection_width,
    set_bits,
    tuple_code,
)

relations = st.integers(min_value=1, max_value=5).flatmap(
    lambda a: st.integers(min_value=1, max_value=(1 << (1 << a)) - 1).map(
        lambda m: Relation(a, m)
    )
)


def apply_bits(f: BoolFunction, bits) -> int:
    """f on one argument tuple of bits."""
    return f.value(tuple_code(bits))


def brute_force_polymorphism(f: BoolFunction, r: Relation) -> bool:
    """Independent oracle: literal triple/pair enumeration over bit rows."""
    rows = r.bit_rows()
    for choice in itertools.product(rows, repeat=f.arity):
        image = tuple(apply_bits(f, col) for col in zip(*choice))
        if tuple_code(image) not in r.tuples():
            return False
    return True


class TestIsPolymorphism:
    def test_identity_always(self):
        for r in (OR2, DUP3, NAE3, even_rel(4)):
            assert oracle.is_polymorphism(ID1, r)

    def test_only_the_clone_generators_are_tested(self):
        with pytest.raises(ValueError):
            is_polymorphism(ID1, OR2)
        with pytest.raises(ValueError):
            is_polymorphism(BoolFunction(3, MAJ3.table ^ 1), OR2)
        # the test is looked up by truth table, not by name
        assert is_polymorphism(BoolFunction(2, AND2.table), nand_rel(3))

    def test_and_fails_on_or(self):
        # 01 and 10 meet to 00, which is not in [x or y]
        assert not is_polymorphism(AND2, OR2)

    def test_xor3_preserves_even3(self):
        # derived by exhaustive check over all 4**3 tuple triples
        assert brute_force_polymorphism(XOR3, even_rel(3))
        assert is_polymorphism(XOR3, even_rel(3))

    @settings(max_examples=60, deadline=None)
    @given(relations, st.sampled_from([1, 2, 3]))
    def test_agrees_with_brute_force(self, r, f_arity):
        table = hash((r.arity, r.mask, f_arity)) % (1 << (1 << f_arity))
        f = BoolFunction(f_arity, table)
        assert oracle.is_polymorphism(f, r) == brute_force_polymorphism(f, r)


# every clone base function of the lattice oracle, once each: the classifier's
# 16 generators and the three composites it leaves out
CLONE_GENERATORS = tuple(
    {
        (f.arity, f.table): f
        for clone in [c for c, _ in PLAIN_CLONES.values()] + list(LIMIT_CLONES.values())
        for f in clone
    }.values()
)


def closed_under(f: BoolFunction, arity: int, codes: set[int]) -> Relation:
    """The least relation containing `codes` that f preserves."""
    codes = set(codes)
    while True:
        rows = [code_bits(c, arity) for c in sorted(codes)]
        images = {
            tuple_code([apply_bits(f, col) for col in zip(*choice)])
            for choice in itertools.product(rows, repeat=f.arity)
        }
        if images <= codes:
            return Relation.from_tuples(arity, codes)
        codes |= images


def kernel_cases() -> list[Relation]:
    """Relations closed under one clone generator each, the same relations
    with one random tuple added, and or/nand and weight-determined ones."""
    rng = random.Random(20050301)
    cases = []
    for arity in range(1, 7):
        gens = CLONE_GENERATORS
        if arity == 6:  # ternary closures at arity 6 are slow to build
            gens = rng.sample([g for g in CLONE_GENERATORS if g.arity <= 2], 4)
        for g in gens:
            r = closed_under(g, arity, set(rng.sample(range(1 << arity), min(arity, 3))))
            cases.append(r)
            outside = [c for c in range(1 << arity) if not r.contains(c)]
            if outside:
                cases.append(Relation(arity, r.mask | 1 << rng.choice(outside)))
    for m in (2, 3, 4, 5):
        cases += [or_rel(m), nand_rel(m), even_rel(m), odd_rel(m)]
    for arity, weights in ((3, {0, 3}), (4, {1, 2}), (4, {0, 2, 3}), (5, {2, 3}), (5, {0, 1, 5})):
        cases.append(Relation.from_tuples(arity, [c for c in range(1 << arity) if c.bit_count() in weights]))
    return cases


def test_kernel_agrees_with_brute_force_on_closed_relations():
    # the library's 16 generator tests, and the oracle kernel on every clone
    # base function; the cases add every relation of arity <= 3
    small = [Relation(a, m) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))]
    verdicts = []
    for r in kernel_cases() + small:
        for f in CLONE_GENERATORS:
            want = brute_force_polymorphism(f, r)
            assert oracle.is_polymorphism(f, r) == want, (str(f), str(r))
            if f in _GENERATORS:
                verdicts.append(is_polymorphism(f, r))
                assert verdicts[-1] == want, (str(f), str(r))
    assert len(set(_GENERATORS) & set(CLONE_GENERATORS)) == 16
    # the cases exercise both outcomes in bulk, not just the failing one
    assert verdicts.count(True) > len(verdicts) // 4
    assert verdicts.count(False) > len(verdicts) // 4


def width_cases() -> list[Relation]:
    """Per arity 1-7, or/nand and conjunctions of random positive clauses,
    implications and negative units, which x | (y & z) preserves, and their
    duals, which x & (y | z) preserves."""
    rng = random.Random(20031204)
    cases = []
    for arity in range(1, 8):
        cases += [or_rel(arity), nand_rel(arity)]
        for _ in range(40):
            codes = set(range(1 << arity))
            for _ in range(rng.randint(1, 2 * arity)):
                roll = rng.random()
                if roll < 0.6:  # a positive clause
                    support = rng.sample(range(arity), rng.randint(1, arity))
                    codes = {c for c in codes if any(code_bits(c, arity)[i] for i in support)}
                elif roll < 0.9 and arity > 1:  # an implication
                    i, j = rng.sample(range(arity), 2)
                    codes = {c for c in codes if code_bits(c, arity)[i] <= code_bits(c, arity)[j]}
                else:  # a negative unit
                    i = rng.randrange(arity)
                    codes = {c for c in codes if not code_bits(c, arity)[i]}
            if codes:
                r = Relation.from_tuples(arity, codes)
                cases += [r, dualize(r)]
    return cases


def test_prime_clause_width_matches_the_subset_scan():
    widths = set()
    for r in width_cases():
        assert is_polymorphism(OR_AND3, r) or is_polymorphism(AND_OR3, r), str(r)
        widths.add(projection_width(r))
        assert projection_width(r) == oracle.projection_width(r), str(r)
    assert widths == set(range(2, 8))


def test_width_refuses_relations_outside_both_limits():
    with pytest.raises(InternalConsistencyError):
        projection_width(XOR2)


# horn, dual-Horn, bijunctive, affine and complementive closure, in order
PROPERTY_GENERATORS = (AND2, OR2F, MAJ3, XOR3, NOT1)


def preserved_by(r: Relation) -> list[bool]:
    return [is_polymorphism(f, r) for f in PROPERTY_GENERATORS]


class TestPropertyFlags:
    def test_even4(self):
        # the all-ones tuple has even weight, so even^4 is also 1-valid
        r = even_rel(4)
        assert r.contains(0) and r.contains(0b1111)
        assert preserved_by(r) == [False, False, False, True, True]

    def test_nae3_complementive_not_affine(self):
        assert is_polymorphism(NOT1, NAE3)
        assert not is_polymorphism(XOR3, NAE3)

    def test_unit_relation(self):
        assert T_REL.contains(1) and not T_REL.contains(0)
        assert preserved_by(T_REL) == [True, True, True, True, False]

    @settings(max_examples=80, deadline=None)
    @given(relations)
    def test_monotone_is_conjunction(self, r):
        def admits(shape: str) -> bool:
            try:
                cnf_decompose(r, shape)
            except ShapeUnavailable:
                return False
            return True

        assert admits("monotone") == (admits("horn") and admits("dual_horn"))

    @settings(max_examples=80, deadline=None)
    @given(relations)
    def test_affine_implies_power_of_two_models(self, r):
        if is_polymorphism(XOR3, r):
            assert r.size & (r.size - 1) == 0


class TestDualize:
    def test_unit(self):
        assert dualize(T_REL) == F_REL

    def test_involution(self):
        for r in (DUP3, OR2, IMPL, even_rel(4)):
            assert dualize(dualize(r)) == r

    def test_or_to_nand(self):
        assert dualize(OR2) == nand_rel(2)

    @settings(max_examples=80, deadline=None)
    @given(relations)
    def test_flag_symmetry(self, r):
        # and and or swap under complement; majority, xor3 and not are self-dual
        and_, or_, maj, xor3, not_ = preserved_by(r)
        assert preserved_by(dualize(r)) == [or_, and_, maj, xor3, not_]
        top = (1 << r.arity) - 1
        assert dualize(r).contains(top) == r.contains(0)
        assert dualize(r).contains(0) == r.contains(top)


def models_of_clauses(arity, clauses):
    out = set()
    for code in range(1 << arity):
        bits = code_bits(code, arity)
        if all(cl.holds(bits) for cl in clauses):
            out.add(code)
    return out


class TestCnfDecompose:
    def test_or_has_no_horn_shape(self):
        with pytest.raises(ShapeUnavailable):
            cnf_decompose(OR2, "horn")

    def test_impl_bijunctive(self):
        clauses = cnf_decompose(IMPL, "bijunctive")
        assert len(clauses) == 1
        (cl,) = clauses
        assert cl.parity_bit is None and cl.positives == (1,) and cl.negatives == (0,)

    def test_even3_parity(self):
        clauses = cnf_decompose(even_rel(3), "parity")
        assert len(clauses) == 1
        (cl,) = clauses
        assert cl.positives == (0, 1, 2) and not cl.negatives and cl.parity_bit == 0

    @settings(max_examples=100, deadline=None)
    @given(relations)
    def test_decomposition_reproduces_model_set(self, r):
        for shape in ("horn", "dual_horn", "bijunctive", "monotone", "parity"):
            try:
                clauses = cnf_decompose(r, shape)
            except ShapeUnavailable:
                continue
            assert models_of_clauses(r.arity, clauses) == set(r.tuples())

    def test_ihsb_shapes(self):
        clauses = cnf_decompose(or_rel3 := Relation.from_tuples(3, range(1, 8)), "ihsb_pos", 3)
        assert models_of_clauses(3, clauses) == set(or_rel3.tuples())
        # positive clauses, implications and units only
        assert all(cl.parity_bit is None for cl in clauses)
        assert all(not cl.negatives or (len(cl.negatives), len(cl.positives)) in ((1, 0), (1, 1))
                   for cl in clauses)
        with pytest.raises(ShapeUnavailable):
            cnf_decompose(or_rel3, "ihsb_pos", 2)

    @settings(max_examples=60, deadline=None)
    @given(relations, st.sampled_from([2, 3, 4]))
    def test_ihsb_decomposition_reproduces_model_set(self, r, k):
        for shape in ("ihsb_pos", "ihsb_neg"):
            try:
                clauses = cnf_decompose(r, shape, k)
            except ShapeUnavailable:
                continue
            assert models_of_clauses(r.arity, clauses) == set(r.tuples())
            widths = [len(cl.positives if shape == "ihsb_pos" else cl.negatives)
                      for cl in clauses]
            assert all(w <= k for w in widths)


# the clone generators that close a relation into each disjunctive shape
SHAPE_GENERATORS = {
    "horn": (AND2,),
    "dual_horn": (OR2F,),
    "bijunctive": (MAJ3,),
    "monotone": (AND2, OR2F),
    "ihsb_pos": (OR_AND3,),
    "ihsb_neg": (AND_OR3,),
}


def implicate_cases() -> list[tuple[Relation, str, int | None]]:
    """Per arity 1-7, shape and width: random relations, and relations
    closed under the shape's generators (ternary ones up to arity 5)."""
    rng = random.Random(20151109)
    cases = []
    for arity in range(1, 8):
        for shape, gens in SHAPE_GENERATORS.items():
            for k in (2, 3, 4) if shape.startswith("ihsb") else (None,):
                for _ in range(3):
                    cases.append((Relation(arity, rng.randint(1, (1 << (1 << arity)) - 1)), shape, k))
                    if arity > 5 and any(g.arity > 2 for g in gens):
                        continue
                    r = Relation.from_tuples(arity, rng.sample(range(1 << arity), min(arity, 3)))
                    while not all(is_polymorphism(g, r) for g in gens):
                        for g in gens:
                            r = closed_under(g, arity, set(r.tuples()))
                    cases.append((r, shape, k))
    return cases


def test_transform_matches_the_enumeration_oracle():
    """The kernel returns the oracle's minimal implicates with at most one
    positive or at most one negative literal on every relation, admitted or
    not; on an admitted one, that is the shape-filtered oracle tuple."""
    admitted = 0
    for r, shape, k in implicate_cases():
        expected = tuple(cl for cl in minimal_implicates(r)
                         if len(cl.positives) <= 1 or len(cl.negatives) <= 1)
        assert _prime_implicates(r.arity, r.mask) == expected, str(r)
        try:
            assert cnf_decompose(r, shape, k) == minimal_implicates(r, shape, k)
            admitted += 1
        except ShapeUnavailable:
            pass
    assert admitted > 200


def test_every_decomposition_clause_has_its_shape_form():
    """Every clause of every admitted decomposition has the shape's clause
    form, which is why the library needs no per-shape filter."""
    rels = {r for r, _, _ in implicate_cases()}
    rels |= {Relation(a, m) for a in (1, 2, 3) for m in range(1, 1 << (1 << a))}
    admitted = 0
    for r in rels:
        for shape in SHAPE_GENERATORS:
            for k in (2, 3, 4) if shape.startswith("ihsb") else (None,):
                try:
                    clauses = cnf_decompose(r, shape, k)
                except ShapeUnavailable:
                    continue
                admitted += 1
                assert all(clause_allowed(shape, k, cl.positives, cl.negatives)
                           for cl in clauses), (str(r), shape, k)
    assert admitted > 1000


def _random_clause(rng: random.Random, arity: int) -> Clause:
    coords = rng.sample(range(arity), rng.randint(1, arity))
    if rng.random() < 0.3:
        return Clause(tuple(sorted(coords)), parity_bit=rng.randint(0, 1))
    split = rng.randint(0, len(coords))
    return Clause(tuple(sorted(coords[:split])), tuple(sorted(coords[split:])))


def test_mask_verification_agrees_with_the_numpy_reference():
    """`_verify_decomposition` raises exactly when the numpy reference finds
    that the clauses' models differ from the relation's, on random clause
    sets checked against their own model set, or that set with one code
    toggled, or a random relation."""
    rng = random.Random(3_000)
    verdicts = {True: 0, False: 0}
    for _ in range(3_000):
        arity = rng.randint(1, 5)
        clauses = tuple(_random_clause(rng, arity) for _ in range(rng.randint(0, 4)))
        mask = sum(1 << t for t in range(1 << arity)
                   if all(cl.holds(code_bits(t, arity)) for cl in clauses))
        pick = rng.random()
        if pick < 0.3:
            mask ^= 1 << rng.randrange(1 << arity)
        elif pick < 0.4 or not mask:
            mask = rng.randint(1, (1 << (1 << arity)) - 1)
        if not mask:
            continue
        r = Relation(arity, mask)
        holds = decomposition_holds(r, clauses)
        verdicts[holds] += 1
        if holds:
            _verify_decomposition(r, clauses)
        else:
            with pytest.raises(InternalConsistencyError):
                _verify_decomposition(r, clauses)
    assert min(verdicts.values()) > 1_000


def test_wrong_decompositions_raise():
    # a disjunctive clause too many or too few, and a parity bit flipped
    _verify_decomposition(or_rel(3), (Clause((0, 1, 2)),))
    for wrong in ((Clause((0, 1)),), ()):
        with pytest.raises(InternalConsistencyError):
            _verify_decomposition(or_rel(3), wrong)
    _verify_decomposition(even_rel(3), (Clause((0, 1, 2), parity_bit=0),))
    with pytest.raises(InternalConsistencyError):
        _verify_decomposition(even_rel(3), (Clause((0, 1, 2), parity_bit=1),))


def horn_closure(arity: int, rng: random.Random) -> Relation:
    """The models of 3 * arity random Horn 3-clauses (never empty: the
    all-zero tuple satisfies every one)."""
    models = set(range(1 << arity))
    for _ in range(3 * arity):
        a, b, c = rng.sample(range(arity), 3)
        models = {t for t in models if not (t >> (arity - 1 - a)) & (t >> (arity - 1 - b)) & 1
                  or (t >> (arity - 1 - c)) & 1}
    return Relation.from_tuples(arity, models)


class TestWideDecompositions:
    @staticmethod
    def check_or_and_nand(arity):
        assert cnf_decompose(or_rel(arity), "dual_horn") == (Clause(tuple(range(arity))),)
        assert cnf_decompose(nand_rel(arity), "horn") == (Clause((), tuple(range(arity))),)

    @staticmethod
    def check_horn_closure(arity):
        r = horn_closure(arity, random.Random(arity))
        clauses = cnf_decompose(r, "horn")
        assert all(len(cl.positives) <= 1 for cl in clauses)
        # a clause is falsified exactly by its positives at 0 and its negatives at 1
        codes = range(1 << arity)
        for cl in clauses:
            support = sum(1 << (arity - 1 - i) for i in cl.positives + cl.negatives)
            falsified = sum(1 << (arity - 1 - i) for i in cl.negatives)
            codes = [t for t in codes if t & support != falsified]
        assert codes == list(r.tuples())

    def test_or_and_nand_of_arity_12_are_one_clause(self):
        self.check_or_and_nand(12)

    def test_or_and_nand_of_arity_16_are_one_clause(self):
        self.check_or_and_nand(16)

    def test_horn_closure_of_arity_12_reproduces_its_models(self):
        self.check_horn_closure(12)

    def test_horn_closure_of_arity_14_reproduces_its_models(self):
        self.check_horn_closure(14)


class TestRelationBasics:
    def test_encoding_is_msb_first(self):
        r = Relation.from_tuples(3, ["011"])
        assert r.tuples() == (3,)
        assert r.bit_rows() == ((0, 1, 1),)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            Relation(2, 0)

    def test_arity_cap(self):
        with pytest.raises(ParseError):
            Relation(17, 1)

    def test_restrict(self):
        assert DUP3.restrict(2, 1) == Relation.from_tuples(2, ["00", "01", "11"])

    def test_set_bits_match_the_membership_table(self):
        rng = random.Random(26)
        for arity in range(1, 17):
            size = 1 << arity
            full = (1 << size) - 1
            sparse = 1 << rng.randrange(size) | 1 << rng.randrange(size) | 1 << rng.randrange(size)
            masks = [0, full, 1 << (size - 1), sparse, rng.getrandbits(size), full ^ sparse]
            for mask in masks:
                want = np.flatnonzero(membership_table(arity, mask)).tolist()
                assert list(set_bits(mask)) == want, (arity, mask)
                if mask:
                    assert Relation(arity, mask).tuples() == tuple(want)


class TestBuiltins:
    def test_definitions(self):
        from minsol.relations import BUILTIN_RELATIONS

        b = BUILTIN_RELATIONS
        assert b["or2"].tuples() == (1, 2, 3)
        assert b["nand2"].tuples() == (0, 1, 2)
        assert b["impl"].tuples() == (0, 1, 3)
        assert all(c.bit_count() % 2 == 0 for c in b["even4"].tuples())
        assert b["even4"].size == 8
        assert all(c.bit_count() % 2 == 1 for c in b["odd3"].tuples())
        assert b["dup3"].tuples() == tuple(c for c in range(8) if c not in (0b010, 0b101))
        assert b["nae3"].tuples() == tuple(range(1, 7))
        assert b["one_in_three"].tuples() == (1, 2, 4)
        assert b["t"].tuples() == (1,) and b["f"].tuples() == (0,)

    def test_parity_clause_validation(self):
        from minsol.relations import Clause

        with pytest.raises(ParseError):
            Clause(positives=(0,), negatives=(1,), parity_bit=1)


class TestLanguageParsing:
    def test_round_trip(self):
        text = """
        # a comment
        rel myor 2 01,10,11
        rel unit 1 1
        """
        lang = parse_language(text)
        assert lang.get("myor") == OR2
        assert lang.get("unit") == T_REL
        assert lang.get("nae3") == NAE3  # builtin fallback

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_language("rel broken 2 0,1,2x")

    def test_conflicting_redeclaration(self):
        with pytest.raises(ParseError):
            parse_language("rel a 1 1\nrel a 1 0")

    def test_declared_name_shadows_builtin(self):
        lang = Language.of(or2=XOR2)
        assert lang.get("or2") == XOR2 and lang.has("or2") and lang.declared("or2") == XOR2
        assert lang.get("impl") == IMPL and lang.has("impl") and lang.declared("impl") is None
        assert BUILTIN_RELATIONS["or2"] == OR2 and "impl" not in lang.index
        assert not lang.has("mystery") and lang.declared("mystery") is None
        with pytest.raises(ParseError):
            lang.get("mystery")

    def test_first_declaration_wins_in_a_raw_language(self):
        lang = Language((("r", XOR2), ("r", OR2)))
        assert lang.get("r") == XOR2 and lang.declared("r") == XOR2 and lang.has("r")

    def test_rewritten_file_is_read_again(self, tmp_path):
        # same size, different tuples, written at once: only the text tells them apart
        path = tmp_path / "l.lang"
        path.write_text("rel a 2 01,10\n")
        assert load_language(path).get("a") == XOR2
        path.write_text("rel a 2 00,11\n")
        assert load_language(path).get("a") == Relation.from_tuples(2, ["00", "11"])

    def test_file_longer_than_one_read(self, tmp_path):
        path = tmp_path / "l.lang"
        path.write_text("# padding\n" * 20_000 + "rel a 2 01,10,11\n")
        assert path.stat().st_size > 1 << 17
        assert load_language(path).get("a") == OR2

    def test_flags_intersection(self):
        # xor2 is affine and complementive, t only affine: the language is affine only
        label = classify(parse_language("rel a 2 01,10\nrel b 1 1"))
        assert label == CoCloneLabel("iD1")
        assert label_leq(label, CoCloneLabel("iL2")) and not label_leq(label, CoCloneLabel("iN2"))
