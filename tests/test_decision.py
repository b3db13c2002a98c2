import random
import time as time_module

import pytest

from enumeration_oracle import gather_codes
from helpers import FAMILY_LANGUAGES, lang, random_model, random_satisfiable
from minsol.clauses import clause_index, horn_model, parity_rows
from minsol.decision import another_sat, another_sat_below_n, sat_solve, tssat
from minsol.errors import NotAModel, TooLarge
from minsol.formulas import (
    XSOL,
    Assignment,
    enumerate_models,
    hamming,
    make_formula,
    oracle_optimize,
    satisfies,
)
from minsol.gf2 import popcount, solve_affine
from minsol.msd import solve_msd
from minsol.nsol import solve_nsol
from minsol.postlattice import CoCloneLabel, classify, label_leq, verdict
from minsol.relations import (
    BUILTIN_RELATIONS,
    DUALHORN3,
    DUP3,
    F_REL,
    HORN3,
    IMPL,
    Language,
    NAE3,
    OR2,
    T_REL,
    XOR2,
    even_rel,
)
from minsol.xsol import solve_xsol

A = Assignment.from_string


class TestSatSolve:
    def test_horn_units(self):
        f = make_formula(lang(t=T_REL, impl=IMPL), 2, [("t", [1]), ("impl", [1, 2])])
        assert str(sat_solve(f)) == "11"

    def test_dup3_zero_valid(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        assert str(sat_solve(f)) == "000"

    def test_contradiction(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 1, [("t", [1]), ("f", [1])])
        assert sat_solve(f) is None


def _flip_by_flip(f, m: Assignment) -> Assignment | None:
    """A model other than m as SAT under each flipped unit gave it: the
    Horn or dual-Horn model with the unit, or the particular solution of
    the parity equations with the unit row appended; nearest, then least,
    kept."""
    n, label = f.var_count, classify(f.effective_language())
    best = None
    for v in range(1, n + 1):
        flipped = 1 - m.value(v)
        if label_leq(label, CoCloneLabel("iE2")):
            cand = horn_model(clause_index(f, "horn"), {v: flipped}, 0)
        elif label_leq(label, CoCloneLabel("iV2")):
            cand = horn_model(clause_index(f, "dual_horn"), {v: flipped}, 1)
        else:
            solved = solve_affine([*parity_rows(f), (1 << (n - v), flipped)], n)
            cand = None if solved is None else Assignment.from_code(solved[0], n)
        if cand is not None and (
            best is None or (hamming(m, cand), cand.bits) < (hamming(m, best), best.bits)
        ):
            best = cand
    return best


# another_sat tests the label against iE2, iV2, iD2 and iL2 in that order
FLIP_BY_FLIP = {
    "iM": lang(impl=IMPL),
    "iM2": FAMILY_LANGUAGES["iM2"],
    "iE": lang(horn3=HORN3),
    "iE2": FAMILY_LANGUAGES["iE2"],
    "iV": lang(d=DUALHORN3),
    "iV2": FAMILY_LANGUAGES["iV2"],
    "iS0^2": lang(or2=OR2),
    "iS00^2": FAMILY_LANGUAGES["iS00_2"],
    "iL": lang(even4=even_rel(4)),
    "iL1": lang(odd3=BUILTIN_RELATIONS["odd3"]),
    "iL2": FAMILY_LANGUAGES["iL2"],
}
NEAREST_FLIP = {
    "iD": lang(x=XOR2),
    "iD1": FAMILY_LANGUAGES["iD1"],
    "iD2": lang(x=XOR2, impl=IMPL, t=T_REL, f=F_REL),  # unit atoms force variables
}


class TestAnotherSatWitness:
    def test_labels_sit_where_the_tests_expect(self):
        below = lambda label, name: label_leq(label, CoCloneLabel(name))  # noqa: E731
        for name, language in {**FLIP_BY_FLIP, **NEAREST_FLIP}.items():
            label = classify(language)
            assert str(label) == name
            two_cnf = below(label, "iD2") and not below(label, "iE2") and not below(label, "iV2")
            assert two_cnf == (name in NEAREST_FLIP)
        assert below(classify(FLIP_BY_FLIP["iM"]), "iD2")  # below all four classes
        assert below(classify(NEAREST_FLIP["iD1"]), "iL2")  # below iD2 and iL2

    def test_dualhorn3_flips_as_sat_under_each_unit(self):
        # x | y | -z is 0- and 1-valid, so plain SAT answers all zeros; with
        # a flipped unit the dual-Horn model fills with ones
        atoms = [("d", [1, 2, 3]), ("d", [3, 4, 1]), ("d", [2, 4, 5]), ("d", [5, 1, 4])]
        f = make_formula(lang(d=DUALHORN3), 5, atoms)
        assert verdict(f.effective_language(), "SAT").algorithm_tag == "const_zero"
        assert sat_solve(f) == Assignment((0,) * 5)
        models = enumerate_models(f).assignments
        for m in models:
            assert another_sat(f, m) == _flip_by_flip(f, m)
        assert another_sat(f, Assignment((0,) * 5)) == A("11111")

    @pytest.mark.parametrize("name", list(FLIP_BY_FLIP))
    def test_horn_dual_horn_and_affine_witnesses_are_flip_by_flip(self, name):
        rng = random.Random(20_000 + sorted(FLIP_BY_FLIP).index(name))
        for _ in range(150):
            f, codes = random_satisfiable(FLIP_BY_FLIP[name], rng, max_vars=12, max_atoms=12)
            m = random_model(rng, codes, f.var_count)
            assert another_sat(f, m) == _flip_by_flip(f, m)

    @pytest.mark.parametrize("name", list(NEAREST_FLIP))
    def test_two_cnf_witness_is_a_nearest_other_model(self, name):
        rng = random.Random(21_000 + sorted(NEAREST_FLIP).index(name))
        unique = 0
        for _ in range(300):
            f, codes = random_satisfiable(NEAREST_FLIP[name], rng, max_vars=12, max_atoms=12)
            m = random_model(rng, codes, f.var_count)
            got = another_sat(f, m)
            if len(codes) == 1:
                assert got is None
                unique += 1
                continue
            assert got != m and satisfies(f, got)
            assert hamming(m, got) == oracle_optimize(XSOL, f, m).value
        assert unique < 150


class TestAnotherSat:
    def test_affine_pair(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        assert str(another_sat(f, A("01"))) == "10"

    def test_unique_model(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        assert another_sat(f, A("1")) is None

    def test_complementive(self):
        f = make_formula(lang(nae3=NAE3), 3, [("nae3", [1, 2, 3])])
        got = another_sat(f, A("001"))
        assert got is not None and got != A("001") and satisfies(f, got)

    def test_not_a_model(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        with pytest.raises(NotAModel):
            another_sat(f, A("0"))


class TestTssat:
    def test_two_models(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        two = tssat(f)
        assert two.has_two and len(set(two.witnesses)) == 2

    def test_unique(self):
        f = make_formula(lang(t=T_REL), 2, [("t", [1]), ("t", [2])])
        two = tssat(f)
        assert two.satisfiable and not two.has_two

    def test_or2(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert tssat(f).has_two


class TestAnotherSatBelowN:
    def test_parity_complement_only(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        assert not another_sat_below_n(f, A("01"))

    def test_bijunctive_complement_only(self):
        # or2 and nand2 on one pair: the one other model is the complement
        language = lang(or2=OR2, nand2=BUILTIN_RELATIONS["nand2"])
        f = make_formula(language, 2, [("or2", [1, 2]), ("nand2", [1, 2])])
        assert not another_sat_below_n(f, A("01"))

    def test_or2(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        assert another_sat_below_n(f, A("11"))

    def test_nae3(self):
        f = make_formula(lang(nae3=NAE3), 3, [("nae3", [1, 2, 3])])
        assert another_sat_below_n(f, A("001"))

    def test_bijunctive_failed_flips_beside_a_forced_variable(self):
        # unit propagation forces only x3, yet flipping x1 or x2 fails
        language = lang(impl=IMPL, nand2=BUILTIN_RELATIONS["nand2"], or2=OR2, t=T_REL)
        atoms = [("impl", [1, 2]), ("nand2", [1, 2]), ("or2", [1, 2]), ("t", [3])]
        f = make_formula(language, 3, atoms)
        assert [str(m) for m in enumerate_models(f).assignments] == ["011"]
        assert not another_sat_below_n(f, A("011"))

    def test_bijunctive_closures_match_enumeration(self):
        # unit atoms force variables, so some probes meet a forced variable
        rng = random.Random(12)
        names = {"x": XOR2, "or2": OR2, "impl": IMPL, "nand2": BUILTIN_RELATIONS["nand2"]}
        language = lang(**names, t=T_REL, f=F_REL)
        checked = 0
        while checked < 300:
            n = rng.randint(2, 8)
            atoms = [(rng.choice(list(names)), [rng.randint(1, n), rng.randint(1, n)])
                     for _ in range(rng.randint(1, 2 * n))]
            atoms += [(rng.choice("tf"), [rng.randint(1, n)]) for _ in range(rng.randint(0, 2))]
            f = make_formula(language, n, atoms)
            models = enumerate_models(f).assignments
            for m in models:
                truth = any(x != m and hamming(x, m) < n for x in models)
                assert another_sat_below_n(f, m) == truth
                checked += 1

    def test_non_schaefer_matches_the_popcount_scan(self):
        # no Schaefer route applies, so the nearest other model decides;
        # from n = 17 the models span two or more blocks
        names = {"nae3": NAE3, "one_in_three": BUILTIN_RELATIONS["one_in_three"]}
        language = lang(**names)
        assert not any(
            label_leq(classify(language), CoCloneLabel(name)) for name in ("iL2", "iD2", "iE2", "iV2")
        )
        rng = random.Random(19)
        answers = []
        for n in range(3, 19):
            for _ in range(8):
                m = Assignment.from_code(rng.randrange(1, (1 << n) - 1), n)  # not constant
                atoms = []
                while len(atoms) < 3 * n:  # atoms m satisfies, so m stays a model
                    atom = (rng.choice(list(names)), rng.sample(range(1, n + 1), 3))
                    if satisfies(make_formula(language, n, [atom]), m):
                        atoms.append(atom)
                f = make_formula(language, n, atoms[: rng.randint(1, 3 * n)])
                distances = popcount(gather_codes(f) ^ m.code())
                truth = bool(((distances > 0) & (distances < n)).any())
                assert another_sat_below_n(f, m) == truth
                answers.append(truth)
        assert 20 < sum(answers) < len(answers) - 20


class TestScaling:
    def test_tractable_routes_ignore_the_enumeration_cap(self):
        # polynomial routes must handle instances far beyond 24 variables
        rng = random.Random(8)
        n = 80
        chains = {
            "horn": lang(impl=IMPL, t=T_REL),
            "bijunctive": lang(x=XOR2, impl=IMPL),
            "affine": lang(x=XOR2),
        }
        for name, language in chains.items():
            atom = "impl" if name == "horn" else "x"
            atoms = [(atom, [i, i + 1]) for i in range(1, n)]
            if name == "horn":
                atoms.append(("t", [1]))
            f = make_formula(language, n, atoms)
            start = time_module.perf_counter()
            model = sat_solve(f)
            assert model is not None and satisfies(f, model)
            other = another_sat(f, model)
            if other is not None:
                assert satisfies(f, other) and other != model
            tssat(f)
            elapsed = time_module.perf_counter() - start
            assert elapsed < 2.0, (name, elapsed)


class TestAgainstEnumeration:
    def test_random_instances(self):
        rng = random.Random(3)
        builtins = list(BUILTIN_RELATIONS.items())
        checked = 0
        while checked < 200:
            rels = dict(rng.sample(builtins, rng.randint(1, 3)))
            language = Language(tuple(rels.items()))
            n = rng.randint(1, 7)
            atoms = []
            for _ in range(rng.randint(1, 5)):
                name = rng.choice(list(rels))
                atoms.append((name, [rng.randint(1, n) for _ in range(rels[name].arity)]))
            try:
                f = make_formula(language, n, atoms)
            except Exception:
                continue
            checked += 1
            models = enumerate_models(f).assignments
            got = sat_solve(f)
            assert (got is None) == (len(models) == 0)
            if got is not None:
                assert satisfies(f, got)
            two = tssat(f)
            assert two.satisfiable == (len(models) >= 1)
            assert two.has_two == (len(models) >= 2)
            if two.witnesses is not None:
                w1, w2 = two.witnesses
                assert w1 != w2 and satisfies(f, w1) and satisfies(f, w2)
            if models:
                m = rng.choice(models)
                other = another_sat(f, m)
                assert (other is None) == (len(models) == 1)
                if other is not None:
                    assert other != m and satisfies(f, other)
                truth = any(x != m and hamming(x, m) < n for x in models)
                assert another_sat_below_n(f, m) == truth


class TestBeyondTheCap:
    # one-in-three is in no tractable class, so each of these enumerates
    N = 30
    F = make_formula(Language(()), N, [("one_in_three", [i, i + 1, i + 2]) for i in range(1, N, 3)])
    M = A("100" * (N // 3))

    @pytest.mark.parametrize("call", [
        lambda f, m: sat_solve(f),
        lambda f, m: tssat(f),
        lambda f, m: another_sat(f, m),
        lambda f, m: another_sat_below_n(f, m),
        lambda f, m: solve_nsol(f, m, "exact"),
        lambda f, m: solve_xsol(f, m, "exact"),
        lambda f, m: solve_msd(f, "exact"),
    ], ids=["sat", "tssat", "anothersat", "anothersat_lt_n", "nsol", "xsol", "msd"])
    def test_enumeration_refuses(self, call):
        assert satisfies(self.F, self.M)
        with pytest.raises(TooLarge):
            call(self.F, self.M)
