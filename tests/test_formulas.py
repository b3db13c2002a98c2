import itertools
import pickle
import random

import numpy as np
import pytest

import enumeration_oracle
from enumeration_oracle import radius_pair
from helpers import (
    CODE_673,
    CODE_774,
    DIST2_5,
    ONE_IN_THREE_WORDS,
    lang,
    planted_code,
    random_formula,
    random_language,
    random_satisfiable,
)
from minsol import clauses, formulas
from minsol.errors import (
    LengthMismatch,
    NoSecondModel,
    NotAModel,
    ParseError,
    TooLarge,
    Unsatisfiable,
)
from minsol.formulas import (
    Assignment,
    dualize_formula,
    enumerate_models,
    hamming,
    load_formula,
    make_formula,
    model_codes,
    oracle_optimize,
    parse_formula,
    satisfies,
)
from minsol.relations import (
    BUILTIN_RELATIONS,
    DUP3,
    EQ2,
    F_REL,
    OR2,
    T_REL,
    XOR2,
    Relation,
    even_rel,
    nand_rel,
)

A = Assignment.from_string


class TestHamming:
    def test_identity(self):
        assert hamming(A("0101"), A("0101")) == 0

    def test_direct_count(self):
        assert hamming(A("0101"), A("0011")) == 2

    def test_complement(self):
        m = A("0110101")
        assert hamming(m, m.complement()) == len(m)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming(A("01"), A("011"))


class TestSatisfies:
    def test_or(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert satisfies(f, A("11"))

    def test_identification(self):
        f = make_formula(lang(or2=OR2), 1, [("or2", [1, 1])])
        assert not satisfies(f, A("0"))

    def test_even4(self):
        f = make_formula(lang(even4=even_rel(4)), 4, [("even4", [1, 2, 3, 4])])
        assert satisfies(f, A("0110"))


class TestEnumerateModels:
    def test_parity(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        got = enumerate_models(f)
        assert [str(m) for m in got.assignments] == ["01", "10"]
        assert not got.truncated

    def test_or(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert [str(m) for m in enumerate_models(f).assignments] == ["01", "10", "11"]

    def test_contradiction(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 1, [("t", [1]), ("f", [1])])
        assert enumerate_models(f).assignments == ()

    def test_truncation(self):
        f = make_formula(lang(or2=OR2), 4, [("or2", [1, 2])])
        got = enumerate_models(f, cap=5)
        assert len(got.assignments) == 5 and got.truncated

    def test_var_cap(self):
        f = make_formula(lang(or2=OR2), 30, [("or2", [1, 2])])
        with pytest.raises(TooLarge):
            enumerate_models(f)


class TestModelCodes:
    def test_one_relation_on_many_atoms_matches_satisfies(self, monkeypatch):
        # tiny blocks, so each atom's set, prepared once per call, serves every block
        monkeypatch.setattr(formulas, "_BLOCK_BITS", 3)
        rng = random.Random(21)
        for _ in range(60):
            arity = rng.randint(1, 5)
            rel = Relation(arity, rng.randint(1, (1 << (1 << arity)) - 1))
            n = rng.randint(1, 9)
            atoms = [
                ("r", [rng.randint(1, n) for _ in range(arity)]) for _ in range(rng.randint(4, 16))
            ]
            f = make_formula(lang(r=rel), n, atoms)
            want = [c for c in range(1 << n) if satisfies(f, Assignment.from_code(c, n))]
            assert model_codes(f).tolist() == want


class TestOracle:
    def test_nsol_or(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert oracle_optimize("NSOL", f, A("00")).value == 1

    def test_xsol_parity(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        out = oracle_optimize("XSOL", f, A("01"))
        assert out.value == 2 and str(out.witness) == "10"

    def test_msd_or(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        out = oracle_optimize("MSD", f)
        assert out.value == 1

    def test_unsatisfiable(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 1, [("t", [1]), ("f", [1])])
        with pytest.raises(Unsatisfiable):
            oracle_optimize("NSOL", f, A("0"))

    def test_not_a_model(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        with pytest.raises(NotAModel):
            oracle_optimize("XSOL", f, A("0"))

    def test_no_second_model(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        with pytest.raises(NoSecondModel):
            oracle_optimize("XSOL", f, A("1"))
        with pytest.raises(NoSecondModel):
            oracle_optimize("MSD", f)

    def test_far_block_before_the_input_block(self):
        # n = 18 spans four blocks: from 1^18 the only other model, 0^18,
        # lies 18 away in the first block, and the input's own block then
        # has no model left to find within that distance
        n = 18
        f = make_formula(lang(eq=EQ2), n, [("eq", [i, i + 1]) for i in range(1, n)])
        out = oracle_optimize("XSOL", f, A("1" * n))
        assert out.value == n and str(out.witness) == "0" * n

    def test_lexicographic_witness(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        out = oracle_optimize("NSOL", f, A("11"))
        assert out.value == 0 and str(out.witness) == "11"
        out = oracle_optimize("MSD", f)
        assert [str(w) for w in out.witnesses()] == ["01", "11"]


PLANTED = [  # (members, n, interleaved, MSD)
    (ONE_IN_THREE_WORDS, 12, False, 2),
    (DIST2_5, 12, True, 2),
    (CODE_673, 12, True, 3),
    (CODE_774, 14, True, 4),
]


def _msd_cases(rng: random.Random, count: int):
    """Random formulas with 2-1000 models, then the planted codes.  Up to
    30 atoms leave some formulas on many variables with only a few models,
    which the cost rule hands to the pairwise scan."""
    for _ in range(count):
        language = random_language(rng, max_arity=3, max_rels=2)
        f = random_formula(language, rng, max_vars=14, max_atoms=rng.randint(1, 30))
        if 2 <= len(model_codes(f)) <= 1000:  # keep the quadratic scan quick
            yield f
    for words, n, interleaved, _ in PLANTED:
        yield planted_code(words, n, interleaved)


def _bitset_pair(f, pairs=float("inf")):
    return formulas._radius_pair(list(formulas._model_blocks(f)), f.var_count, pairs)


class TestMsdRadiusSearch:
    def test_bitset_search_matches_the_references(self, monkeypatch):
        # unbounded, the bitset search answers at every distance as the numpy
        # radius search and the pairwise scan do; under the cost rule the
        # oracle hands some formulas to the pairwise scan
        rng = random.Random(31)
        sides = {"radius": 0, "pairwise": 0}
        distances = set()
        for f in _msd_cases(rng, 800):
            codes, n = model_codes(f), f.var_count
            truth = formulas._pairwise_pair(codes, n)
            assert radius_pair(codes, n) == truth
            with monkeypatch.context() as tiny:
                # many row blocks and mask chunks, as past 2**20 models
                tiny.setattr(enumeration_oracle, "LOOKUPS", 7)
                assert radius_pair(codes, n) == truth
            assert _bitset_pair(f) == truth
            distances.add(truth[0])
            pairs = len(codes) * (len(codes) - 1) // 2
            sides["radius" if _bitset_pair(f, pairs) is not None else "pairwise"] += 1
            out = oracle_optimize("MSD", f)
            assert (out.value, out.witness.code(), out.witness2.code()) == truth
        assert min(sides.values()) >= 50, sides
        assert {1, 2, 3, 4} <= distances

    @pytest.mark.parametrize("block_bits", [2, 3, 4])
    def test_partners_in_other_blocks(self, monkeypatch, block_bits):
        # blocks of 2**2 to 2**4 codes put most pairs across blocks at n <= 14
        monkeypatch.setattr(formulas, "_BLOCK_BITS", block_bits)
        rng = random.Random(block_bits)
        for f in _msd_cases(rng, 200):
            codes, n = model_codes(f), f.var_count
            truth = formulas._pairwise_pair(codes, n)
            assert _bitset_pair(f) == truth
            out = oracle_optimize("MSD", f)
            assert (out.value, out.witness.code(), out.witness2.code()) == truth

    def test_planted_distances(self):
        for words, n, interleaved, msd in PLANTED:
            f = planted_code(words, n, interleaved)
            assert oracle_optimize("MSD", f).value == msd
            assert _bitset_pair(f)[0] == msd

    def test_pairwise_scan_on_24_bit_codes(self):
        # codes far above 2**16, and two that agree on their low 16 bits
        rng = random.Random(24)
        codes = sorted({rng.getrandbits(24) for _ in range(300)} | {5 << 16 | 7, 9 << 16 | 7})
        want = min(((a ^ b).bit_count(), a, b) for a, b in itertools.combinations(codes, 2))
        assert formulas._pairwise_pair(np.array(codes, dtype=np.int64), 24) == want

    def test_lone_nae3_at_n18(self):
        # 3/4 of all 2**18 assignments are models; the smallest one,
        # 001 0..0, and its last-bit flip are the smallest closest pair
        f = make_formula(lang(nae3=BUILTIN_RELATIONS["nae3"]), 18, [("nae3", [1, 2, 3])])
        out = oracle_optimize("MSD", f)
        assert out.value == 1
        assert [str(w) for w in out.witnesses()] == ["001" + "0" * 15, "001" + "0" * 14 + "1"]


class TestDualizeFormula:
    def test_or_becomes_nand(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        fd = dualize_formula(f)
        assert fd.relation("or2") == nand_rel(2)

    def test_involution(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        assert dualize_formula(dualize_formula(f)).atoms == f.atoms

    def test_models_complement(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        fd = dualize_formula(f)
        full = (1 << 3) - 1
        assert {c ^ full for c in map(int, model_codes(f))} == set(map(int, model_codes(fd)))


class TestOracleInvariants:
    def test_msd_is_min_xsol(self):
        rng = random.Random(21)
        done = 0
        while done < 25:
            language = random_language(rng)
            f, codes = random_satisfiable(language, rng, max_vars=6, max_atoms=5, min_models=2)
            msd = oracle_optimize("MSD", f).value
            best = min(
                oracle_optimize("XSOL", f, Assignment.from_code(int(c), f.var_count)).value
                for c in codes
            )
            assert msd == best
            done += 1

    def test_nsol_zero_iff_model(self):
        rng = random.Random(22)
        for _ in range(25):
            language = random_language(rng)
            f, _ = random_satisfiable(language, rng, max_vars=6, max_atoms=5)
            m = Assignment.from_code(rng.randrange(1 << f.var_count), f.var_count)
            assert (oracle_optimize("NSOL", f, m).value == 0) == satisfies(f, m)

    def test_duality(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            language = random_language(rng)
            f, codes = random_satisfiable(language, rng, max_vars=6, max_atoms=5, min_models=2)
            fd = dualize_formula(f)
            n = f.var_count
            m = Assignment.from_code(rng.randrange(1 << n), n)
            model = Assignment.from_code(int(rng.choice(codes)), n)
            assert (
                oracle_optimize("NSOL", f, m).value
                == oracle_optimize("NSOL", fd, m.complement()).value
            )
            assert (
                oracle_optimize("XSOL", f, model).value
                == oracle_optimize("XSOL", fd, model.complement()).value
            )
            assert oracle_optimize("MSD", f).value == oracle_optimize("MSD", fd).value
            done += 1

    def test_rename_invariance(self):
        rng = random.Random(24)
        for _ in range(15):
            language = random_language(rng)
            f, codes = random_satisfiable(language, rng, max_vars=6, max_atoms=5)
            n = f.var_count
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            renamed = make_formula(
                language, n, [(nm, tuple(perm[v - 1] for v in vs)) for nm, vs in f.atoms]
            )
            assert len(model_codes(renamed)) == len(codes)


class TestBinding:
    TEXT = "lang builtin\nrel x 2 01,10\nvars 3\nx 1 2\nimpl 2 3\nor2 1 3\nx 3 3\n"

    def test_atoms_are_bound_in_order(self):
        f = parse_formula(self.TEXT)
        assert f.bound == tuple(f.relation(name) for name, _ in f.atoms)
        assert f.bound[0] == XOR2 and f.bound[2] == OR2

    def test_equal_fields_mean_equal_formulas(self):
        f, g = parse_formula(self.TEXT), parse_formula(self.TEXT)
        assert f is not g and f.bound is not g.bound
        assert f == g and hash(f) == hash(g) and str(f) == str(g)
        assert "bound" not in repr(f)
        first = clauses.cached_clauses(f, "bijunctive")
        hits = clauses._formula_clause_cache.cache_info().hits
        assert clauses.cached_clauses(g, "bijunctive") is first
        assert clauses._formula_clause_cache.cache_info().hits == hits + 1

    def test_hash_is_computed_once(self):
        atoms = [("x", [1, 2]), ("impl", [2, 3]), ("or2", [1, 3]), ("x", [3, 4]), ("nand2", [4, 5])]
        f, g = (make_formula(lang(x=XOR2), 5, atoms) for _ in range(2))
        assert f.language is not g.language and f.atoms is not g.atoms
        assert f == g and hash(f) == hash(g) == hash((f.language, f.var_count, f.atoms))
        assert "_hash" not in repr(f)
        first = clauses.cached_clauses(f, "bijunctive")
        hits = clauses._formula_clause_cache.cache_info().hits
        assert clauses.cached_clauses(g, "bijunctive") is first
        assert clauses._formula_clause_cache.cache_info().hits == hits + 1
        # unpickling rebuilds the hash rather than copying it
        h = pickle.loads(pickle.dumps(f))
        assert h == f and hash(h) == hash(f) and h.bound == f.bound


class TestParsing:
    def test_formula_file(self, tmp_path):
        (tmp_path / "x.lang").write_text("rel xor2 2 01,10\n")
        text = "lang x.lang\nvars 3\nxor2 1 2\nxor2 2 3\n"
        f = parse_formula(text, base_dir=tmp_path)
        assert f.var_count == 3 and len(f.atoms) == 2

    def test_edited_language_file_is_reread(self, tmp_path):
        # parsing is memoized on the file's text, never on its path
        lang = tmp_path / "x.lang"
        text = "lang x.lang\nvars 2\nr 1 2\n"
        lang.write_text("rel r 2 01,10\n")
        assert parse_formula(text, base_dir=tmp_path).relation("r") == XOR2
        lang.write_text("rel r 2 00,01,10\n")
        assert parse_formula(text, base_dir=tmp_path).relation("r") == nand_rel(2)

    def test_builtin_language(self):
        f = parse_formula("lang builtin\nvars 2\nor2 1 2\n")
        assert f.relation("or2") == OR2
        assert f.effective_language().names() == ("or2",)

    def test_inline_relations(self):
        # inline declarations load without a 'lang' header and shadow the
        # builtin of the same name; they merge with a language file
        f = parse_formula("rel or2 2 00,01,10\nvars 2\nor2 1 2\n")
        assert f.relation("or2") == nand_rel(2)
        g = parse_formula("lang builtin\nrel x 2 01,10\nvars 3\nx 1 2\nimpl 2 3\n")
        assert g.relation("x") == XOR2 and g.effective_language().names() == ("x", "impl")
        with pytest.raises(ParseError):
            parse_formula("rel x 2 01\nrel x 2 10\nvars 2\nx 1 2\n")

    def test_load_formula_sees_an_edited_language_file(self, tmp_path):
        (tmp_path / "x.lang").write_text("rel r 2 01,10\n")
        path = tmp_path / "x.cf"
        path.write_text("lang x.lang\nvars 2\nr 1 2\n")
        assert load_formula(path).bound == (XOR2,)
        (tmp_path / "x.lang").write_text("rel r 2 00,01,10\n")
        assert load_formula(str(path)).bound == (nand_rel(2),)

    def test_errors(self):
        # line-level errors name their line; atom validation names the atom
        cases = {
            "# header\nor2 1 2\nlang builtin\nvars 2\n": (
                "line 2: atom before 'lang'/'rel'/'vars' header"
            ),
            "lang builtin\nvars 2\nor2 1\n": "atom or2(1,) has 1 indices, arity is 2",
            "lang builtin\nvars 2\nor2 1 3\n": "atom or2(1, 3) uses an index outside 1..2",
            "lang builtin\nvars 2\n\nmystery 1 2\n": "line 4: unknown relation 'mystery'",
            "lang builtin\nvars 2\nor2 1 x\n": "line 3: variable indices must be integers",
            "lang builtin\nvars 2 3\nor2 1 2\n": "line 2: expected 'vars N'",
            "lang builtin\nvars -2\n": "line 2: expected 'vars N'",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as caught:
                parse_formula(text)
            assert str(caught.value) == message
