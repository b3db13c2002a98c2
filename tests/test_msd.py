import random
import zlib

import pytest

from helpers import FAMILY_LANGUAGES, lang, random_satisfiable
from minsol import clauses
from minsol.dispatch import via_dual
from minsol.errors import UniqueModel, Unsatisfiable
from minsol.formulas import (
    Assignment,
    dualize_formula,
    make_formula,
    oracle_optimize,
    satisfies,
)
from minsol.msd import msd_affine, msd_bijunctive, msd_horn, msd_napprox, solve_msd
from minsol.relations import (
    DUP3,
    EQ2,
    F_REL,
    HORN3,
    IMPL,
    NAND2,
    ONE_IN_THREE,
    OR2,
    T_REL,
    XOR2,
    even_rel,
)
from minsol.xsol import solve_xsol

A = Assignment.from_string


class TestBijunctive:
    def test_parity_pair(self):
        f = make_formula(lang(x=XOR2, impl=IMPL), 2, [("x", [1, 2])])
        assert msd_bijunctive(f).value == 2

    def test_or2(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert msd_bijunctive(f).value == 1

    def test_unique_model(self):
        f = make_formula(lang(t=T_REL, impl=IMPL), 2, [("t", [1]), ("impl", [1, 2])])
        with pytest.raises(UniqueModel):
            msd_bijunctive(f)

    def test_unsat(self):
        f = make_formula(lang(x=XOR2, impl=IMPL), 1, [("x", [1, 1])])
        with pytest.raises(Unsatisfiable):
            msd_bijunctive(f)

    def test_free_variable_gives_one(self):
        f = make_formula(lang(x=XOR2, impl=IMPL), 3, [("x", [1, 2])])
        assert msd_bijunctive(f).value == 1

    def test_failed_literal_forces_zero(self):
        # x -> y and x -> not y: no unit clause, yet x is forced to 0
        atoms = [("impl", [1, 2]), ("nand2", [1, 2]), ("impl", [2, 3])]
        f = make_formula(lang(impl=IMPL, nand2=NAND2), 3, atoms)
        out = msd_bijunctive(f)
        assert out.witness.value(1) == out.witness2.value(1) == 0
        assert out.value == oracle_optimize("MSD", f).value

    @pytest.mark.parametrize(
        "atoms, numberings",
        [
            # no probe fails: the 2-SAT model comes off the reduced index's numbering
            ([("impl", [1, 2]), ("impl", [2, 3]), ("x", [3, 4])], 1),
            # x1 fails: the residual after forcing it is numbered once more
            ([("impl", [1, 2]), ("nand2", [1, 2]), ("impl", [2, 3])], 2),
        ],
    )
    def test_scc_numberings(self, monkeypatch, atoms, numberings):
        calls = []

        def counted(*args):
            calls.append(args)
            return tarjan(*args)

        tarjan = clauses._tarjan_scc
        monkeypatch.setattr(clauses, "_tarjan_scc", counted)
        clauses._formula_clause_cache.cache_clear()
        f = make_formula(lang(impl=IMPL, nand2=NAND2, x=XOR2), 4, atoms)
        out = msd_bijunctive(f)
        assert len(calls) == numberings
        assert out.value == oracle_optimize("MSD", f).value


class TestHorn:
    def test_single_clause(self):
        f = make_formula(lang(horn3=HORN3, f=F_REL, t=T_REL), 3, [("horn3", [1, 2, 3])])
        assert msd_horn(f).value == 1

    def test_equality_class(self):
        f = make_formula(lang(impl=IMPL, f=F_REL, t=T_REL), 2,
                         [("impl", [1, 2]), ("impl", [2, 1])])
        assert msd_horn(f).value == 2

    def test_unique(self):
        f = make_formula(lang(t=T_REL, f=F_REL, horn3=HORN3), 2, [("t", [1]), ("f", [2])])
        with pytest.raises(UniqueModel):
            msd_horn(f)

    def test_failed_literal_forces_zero(self):
        # x -> y, x -> z and (not y or not z): x is forced to 0
        atoms = [("impl", [1, 2]), ("impl", [1, 3]), ("nand2", [2, 3])]
        f = make_formula(lang(impl=IMPL, nand2=NAND2, f=F_REL, t=T_REL), 3, atoms)
        out = msd_horn(f)
        assert out.witness.value(1) == out.witness2.value(1) == 0
        assert out.value == oracle_optimize("MSD", f).value

    def test_dependent_variable_excluded(self):
        # z <-> (y1 and y2): flipping z alone is impossible
        atoms = [("horn3", [1, 2, 3]), ("impl", [3, 1]), ("impl", [3, 2])]
        f = make_formula(lang(horn3=HORN3, impl=IMPL, f=F_REL, t=T_REL), 3, atoms)
        got = msd_horn(f).value
        assert got == oracle_optimize("MSD", f).value

    def test_dependent_class_smaller_than_answer(self):
        # y1 ~ y1', y2 ~ y2', z <-> (y1 and y2): the singleton class {z} is
        # dependent, so the answer is the size-2 equivalence classes
        language = lang(horn3=HORN3, impl=IMPL, f=F_REL, t=T_REL)
        atoms = [
            ("impl", [1, 2]), ("impl", [2, 1]),   # y1 ~ y1'
            ("impl", [3, 4]), ("impl", [4, 3]),   # y2 ~ y2'
            ("horn3", [1, 3, 5]),                  # y1 & y2 -> z
            ("impl", [5, 1]), ("impl", [5, 3]),    # z -> y1, z -> y2
        ]
        f = make_formula(language, 5, atoms)
        out = msd_horn(f)
        assert out.value == 2
        assert out.value == oracle_optimize("MSD", f).value

    def test_dual_route(self):
        f = make_formula(lang(dh3=dualize_rel(), f=F_REL, t=T_REL), 3, [("dh3", [1, 2, 3])])
        out = via_dual(lambda g, m: msd_horn(g), f, None)
        assert out.value == oracle_optimize("MSD", f).value


def dualize_rel():
    from minsol.relations import DUALHORN3

    return DUALHORN3


class TestAffine:
    def test_even4(self):
        f = make_formula(lang(even4=even_rel(4)), 4, [("even4", [1, 2, 3, 4])])
        assert msd_affine(f).value == 2

    def test_equality_chain(self):
        f = make_formula(lang(eq=EQ2), 3, [("eq", [1, 2]), ("eq", [2, 3])])
        assert msd_affine(f).value == 3

    def test_unique(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 2, [("t", [1]), ("t", [2])])
        with pytest.raises(UniqueModel):
            msd_affine(f)


class TestNapprox:
    def test_dup3(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        out = msd_napprox(f)
        assert out.value <= 3 and out.guarantee.kind == "n_approx"

    def test_unique(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        with pytest.raises(UniqueModel):
            msd_napprox(f)

    def test_unsat(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 1, [("t", [1]), ("f", [1])])
        with pytest.raises(Unsatisfiable):
            msd_napprox(f)


class TestDispatch:
    def test_npo_fallback(self):
        f = make_formula(lang(o=ONE_IN_THREE), 3, [("o", [1, 2, 3])])
        out = solve_msd(f)
        assert out.method == "exhaustive_fallback"
        assert out.value == oracle_optimize("MSD", f).value

    def test_witnesses_valid(self):
        rng = random.Random(51)
        for family, language in FAMILY_LANGUAGES.items():
            for _ in range(8):
                f, _ = random_satisfiable(language, rng, max_vars=7, max_atoms=8,
                                          min_models=2)
                out = solve_msd(f)
                w1, w2 = out.witnesses()
                assert w1 != w2 and satisfies(f, w1) and satisfies(f, w2)


class TestRandomizedExactRoutes:
    @pytest.mark.parametrize("family", sorted(FAMILY_LANGUAGES))
    def test_equals_oracle(self, family):
        rng = random.Random(zlib.crc32(family.encode()) % 55555)
        language = FAMILY_LANGUAGES[family]
        for _ in range(40):
            f, _ = random_satisfiable(language, rng, max_vars=8, max_atoms=10,
                                      min_models=2)
            got = solve_msd(f)
            assert got.guarantee.kind == "exact"
            assert got.value == oracle_optimize("MSD", f).value


class TestConsistencyWithXsol:
    def test_msd_is_min_over_models(self):
        rng = random.Random(53)
        for family in ("iD2", "iE2", "iL2"):
            language = FAMILY_LANGUAGES[family]
            for _ in range(10):
                f, codes = random_satisfiable(language, rng, max_vars=6, max_atoms=7,
                                              min_models=2)
                n = f.var_count
                msd = solve_msd(f).value
                best = min(
                    solve_xsol(f, Assignment.from_code(int(c), n)).value for c in codes
                )
                assert msd == best


class TestLargeInstances:
    def test_closures_beyond_the_cap(self):
        # equality chain of 40 variables: one class of size 40
        n = 40
        atoms = [("impl", [i, i + 1]) for i in range(1, n)]
        atoms += [("impl", [i + 1, i]) for i in range(1, n)]
        f = make_formula(lang(impl=IMPL, f=F_REL, t=T_REL), n, atoms)
        out = solve_msd(f)
        assert out.value == n and out.method == "bijunctive_classes"
        g = make_formula(lang(horn3=HORN3, f=F_REL, t=T_REL), 30,
                         [("horn3", [i, i + 1, i + 2]) for i in range(1, 29)])
        out = solve_msd(g)
        assert out.value == 1 and out.method == "horn_closure"


class TestDuality:
    def test_value_invariance(self):
        rng = random.Random(57)
        for family in ("iD2", "iE2", "iV2", "iL2"):
            language = FAMILY_LANGUAGES[family]
            for _ in range(10):
                f, _ = random_satisfiable(language, rng, max_vars=7, max_atoms=8,
                                          min_models=2)
                assert solve_msd(f).value == solve_msd(dualize_formula(f)).value
