import random
import zlib

import pytest

from helpers import FAMILY_LANGUAGES, lang, random_model, random_satisfiable
from minsol import xsol
from minsol.errors import NoSecondModel, NotAModel
from minsol.formulas import (
    Assignment,
    dualize_formula,
    make_formula,
    oracle_optimize,
    satisfies,
)
from minsol.relations import (
    DUALHORN3,
    EQ2,
    F_REL,
    HORN3,
    IMPL,
    NAE3,
    NAND2,
    OR2,
    T_REL,
    even_rel,
    or_rel,
)
from minsol.xsol import (
    solve_xsol,
    xsol_affine,
    xsol_bijunctive,
    xsol_horn_turing,
    xsol_ihsb,
)

A = Assignment.from_string


class TestBijunctive:
    def test_xor_pair(self):
        f = make_formula(lang(or2=OR2, nand2=NAND2), 2,
                         [("or2", [1, 2]), ("nand2", [1, 2])])
        out = xsol_bijunctive(f, A("01"))
        assert (out.value, str(out.witness)) == (2, "10")

    def test_implication(self):
        f = make_formula(lang(impl=IMPL), 2, [("impl", [1, 2])])
        out = xsol_bijunctive(f, A("00"))
        assert (out.value, str(out.witness)) == (1, "01")

    def test_unique_model(self):
        f = make_formula(lang(t=T_REL), 2, [("t", [1]), ("t", [2])])
        with pytest.raises(NoSecondModel):
            xsol_bijunctive(f, A("11"))

    def test_not_a_model(self):
        f = make_formula(lang(t=T_REL), 1, [("t", [1])])
        with pytest.raises(NotAModel):
            xsol_bijunctive(f, A("0"))


class TestIhsb:
    def test_flip_up(self):
        f = make_formula(lang(or2=OR2, impl=IMPL, f=F_REL, t=T_REL), 2,
                         [("or2", [1, 2]), ("impl", [1, 2])])
        out = xsol_ihsb(f, A("01"), 2)
        assert (out.value, str(out.witness)) == (1, "11")

    def test_flip_down(self):
        f = make_formula(lang(or3=or_rel(3), impl=IMPL, f=F_REL, t=T_REL), 3,
                         [("or3", [1, 2, 3])])
        out = xsol_ihsb(f, A("111"), 3)
        assert out.value == 1

    def test_unique(self):
        f = make_formula(lang(t=T_REL, impl=IMPL, or2=OR2, f=F_REL), 1, [("t", [1])])
        with pytest.raises(NoSecondModel):
            xsol_ihsb(f, A("1"), 2)


class TestAffine:
    def test_even3(self):
        f = make_formula(lang(even3=even_rel(3)), 3, [("even3", [1, 2, 3])])
        out = xsol_affine(f, A("000"))
        assert (out.value, str(out.witness)) == (2, "011")

    def test_equality(self):
        f = make_formula(lang(eq=EQ2), 2, [("eq", [1, 2])])
        out = xsol_affine(f, A("11"))
        assert (out.value, str(out.witness)) == (2, "00")

    def test_unique(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 2, [("t", [1]), ("f", [2])])
        with pytest.raises(NoSecondModel):
            xsol_affine(f, A("10"))


class TestHornTuring:
    def test_flip_middle(self):
        f = make_formula(lang(horn3=HORN3, impl=IMPL, f=F_REL, t=T_REL), 3,
                         [("horn3", [1, 2, 3]), ("impl", [3, 1])])
        out = xsol_horn_turing(f, A("000"))
        assert out.value == 1 and out.guarantee.kind == "exact"

    def test_equality_via_horn(self):
        f = make_formula(lang(impl=IMPL, f=F_REL, t=T_REL), 2,
                         [("impl", [1, 2]), ("impl", [2, 1])])
        out = xsol_horn_turing(f, A("00"))
        assert (out.value, str(out.witness)) == (2, "11")

    def test_unique(self):
        f = make_formula(lang(t=T_REL, f=F_REL, horn3=HORN3), 2, [("t", [1]), ("f", [2])])
        with pytest.raises(NoSecondModel):
            xsol_horn_turing(f, A("10"))


def _cycle(name: str, vs: list[int]) -> list[tuple[str, list[int]]]:
    """name(x_i, x_i, x_{i+1}) around the cycle: x_i -> x_{i+1} for horn3,
    x_{i+1} -> x_i for dualhorn3, so every model is constant on vs."""
    return [(name, [a, a, b]) for a, b in zip(vs, vs[1:] + vs[:1])]


class TestHornTuringBeyondTheCap:
    """Past `ORACLE_VAR_CAP` variables each flip is a Horn probe first: a
    conflicting probe drops the flip, a probe that sets every variable is
    its one model, and only the other flips are pinned and solved."""

    @staticmethod
    def no_nested_nsol(monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_nsol called")

        monkeypatch.setattr(xsol, "solve_nsol", refuse)

    def test_cycle_answers_from_the_probe(self, monkeypatch):
        self.no_nested_nsol(monkeypatch)
        n = 60
        f = make_formula(lang(horn3=HORN3), n, _cycle("horn3", list(range(1, n + 1))))
        out = solve_xsol(f, Assignment((0,) * n))
        assert (out.value, out.witness, out.guarantee.kind) == (n, Assignment((1,) * n), "exact")
        assert out.method == "horn_turing"

    def test_dual_cycle_answers_from_the_probe(self, monkeypatch):
        self.no_nested_nsol(monkeypatch)
        n = 60
        f = make_formula(lang(dhorn3=DUALHORN3), n, _cycle("dhorn3", list(range(1, n + 1))))
        out = solve_xsol(f, Assignment((1,) * n))
        assert (out.value, out.witness, out.guarantee.kind) == (n, Assignment((0,) * n), "exact")
        assert out.method == "horn_turing_dual"

    def test_conflicting_pins_are_skipped_and_the_rest_solved(self, monkeypatch):
        # cycles on 1..20 and 21..25, and 26..30 fixed at 0: the five pins of
        # 26..30 conflict, the 25 cycle pins each go through solve_nsol; the
        # answer is the one pinning every flip gave
        atoms = _cycle("horn3", list(range(1, 21))) + _cycle("horn3", list(range(21, 26)))
        atoms += [("f", [v]) for v in range(26, 31)]
        f = make_formula(lang(horn3=HORN3, f=F_REL), 30, atoms)
        calls = []
        inner = xsol.solve_nsol

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(xsol, "solve_nsol", counted)
        out = solve_xsol(f, Assignment((0,) * 30))
        assert len(calls) == 25
        assert (out.value, str(out.witness)) == (5, "0" * 20 + "1" * 5 + "0" * 5)
        assert (out.guarantee.kind, out.method) == ("n_approx", "horn_turing")


class TestDispatch:
    def test_requires_model(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        with pytest.raises(NotAModel):
            solve_xsol(f, A("00"))

    def test_witness_differs_and_satisfies(self):
        rng = random.Random(41)
        for family, language in FAMILY_LANGUAGES.items():
            for _ in range(10):
                f, codes = random_satisfiable(language, rng, max_vars=7, max_atoms=8,
                                              min_models=2)
                m = random_model(rng, codes, f.var_count)
                out = solve_xsol(f, m)
                assert out.witness != m and satisfies(f, out.witness)

    def test_napprox_route(self):
        f = make_formula(lang(nae3=NAE3), 3, [("nae3", [1, 2, 3])])
        out = solve_xsol(f, A("001"))
        want = oracle_optimize("XSOL", f, A("001")).value
        assert out.guarantee.kind == "n_approx"
        assert want <= out.value <= 3 * want


class TestRandomizedExactRoutes:
    @pytest.mark.parametrize("family", sorted(FAMILY_LANGUAGES))
    def test_equals_oracle(self, family):
        rng = random.Random(zlib.crc32(family.encode()) % 77777)
        language = FAMILY_LANGUAGES[family]
        for _ in range(40):
            f, codes = random_satisfiable(language, rng, max_vars=8, max_atoms=10,
                                          min_models=2)
            m = random_model(rng, codes, f.var_count)
            got = solve_xsol(f, m)
            assert got.guarantee.kind == "exact"
            assert got.value == oracle_optimize("XSOL", f, m).value


class TestDuality:
    def test_value_invariance(self):
        rng = random.Random(43)
        for family in ("iD2", "iE2", "iV2", "iL2", "iS00_3"):
            language = FAMILY_LANGUAGES[family]
            for _ in range(10):
                f, codes = random_satisfiable(language, rng, max_vars=7, max_atoms=8,
                                              min_models=2)
                m = random_model(rng, codes, f.var_count)
                a = solve_xsol(f, m).value
                b = solve_xsol(dualize_formula(f), m.complement()).value
                assert a == b
