import random
import zlib
from fractions import Fraction

import pytest

from helpers import (
    FAMILY_LANGUAGES,
    lang,
    random_assignment,
    random_satisfiable,
)
from minsol.dispatch import via_dual
from minsol.errors import NoPolyAlgorithm, Unsatisfiable
from minsol.formulas import (
    Assignment,
    dualize_formula,
    make_formula,
    oracle_optimize,
    satisfies,
)
from minsol.nsol import (
    half_integral_lp,
    nsol_2affine,
    nsol_affine_exact,
    nsol_bijunctive_2approx,
    nsol_feasible_napprox,
    nsol_ihsb_rounding,
    nsol_monotone,
    solve_nsol,
)
from minsol.relations import (
    DUP3,
    EQ2,
    F_REL,
    IMPL,
    NAND2,
    ONE_IN_THREE,
    OR2,
    T_REL,
    XOR2,
    even_rel,
    nand_rel,
    or_rel,
)

A = Assignment.from_string


class Test2Affine:
    def test_parity_chain(self):
        f = make_formula(lang(x=XOR2), 3, [("x", [1, 2]), ("x", [2, 3])])
        out = nsol_2affine(f, A("000"))
        assert (out.value, str(out.witness)) == (1, "010")

    def test_equality_tie_break(self):
        f = make_formula(lang(eq=EQ2), 2, [("eq", [1, 2])])
        out = nsol_2affine(f, A("10"))
        assert (out.value, str(out.witness)) == (1, "00")

    def test_model_returns_itself(self):
        f = make_formula(lang(x=XOR2), 2, [("x", [1, 2])])
        out = nsol_2affine(f, A("01"))
        assert (out.value, str(out.witness)) == (0, "01")

    def test_unsat(self):
        f = make_formula(lang(x=XOR2), 1, [("x", [1, 1])])
        with pytest.raises(Unsatisfiable):
            nsol_2affine(f, A("0"))


class TestMonotone:
    def test_implication(self):
        f = make_formula(lang(impl=IMPL), 2, [("impl", [1, 2])])
        out = nsol_monotone(f, A("10"))
        assert out.value == 1 and satisfies(f, out.witness)

    def test_forced_model(self):
        f = make_formula(lang(t=T_REL, impl=IMPL), 2, [("t", [1]), ("impl", [1, 2])])
        out = nsol_monotone(f, A("00"))
        assert (out.value, str(out.witness)) == (2, "11")

    def test_model_is_zero(self):
        f = make_formula(lang(impl=IMPL), 2, [("impl", [1, 2])])
        assert nsol_monotone(f, A("01")).value == 0


class TestBijunctive2Approx:
    def test_xor(self):
        f = make_formula(lang(x=XOR2, impl=IMPL), 2, [("x", [1, 2])])
        out = nsol_bijunctive_2approx(f, A("00"))
        assert 1 <= out.value <= 2 and out.guarantee.ratio == 2

    def test_or_within_factor(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        out = nsol_bijunctive_2approx(f, A("00"))
        assert 1 <= out.value <= 2

    def test_unsat(self):
        f = make_formula(lang(or2=OR2, nand2=NAND2, x=XOR2, eq=EQ2), 2,
                         [("x", [1, 2]), ("eq", [1, 2])])
        with pytest.raises(Unsatisfiable):
            nsol_bijunctive_2approx(f, A("00"))

    def test_model_is_exact(self):
        f = make_formula(lang(x=XOR2, impl=IMPL), 3, [("x", [1, 2]), ("impl", [2, 3])])
        out = nsol_bijunctive_2approx(f, A("011"))
        assert (out.value, str(out.guarantee)) == (0, "exact")


class TestHalfIntegralLp:
    def test_cut_is_the_lp_optimum(self):
        # half the doubled network's cut is the LP optimum, at a half-integral point
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randint(2, 12)
            clauses = set()
            for _ in range(rng.randint(0, 3 * n)):
                a, b = rng.sample(range(1, n + 1), 2)
                sa, sb = rng.choice(((1, 1), (-1, -1), (-1, 1)))  # or, nand, a -> b
                clauses.add(frozenset({sa * a, sb * b}))
            clauses = sorted(clauses, key=sorted)
            m = random_assignment(rng, n)
            value, point = half_integral_lp(list(range(1, n + 1)), clauses, m)
            a_ub = [[-1 if v in c else 1 if -v in c else 0 for v in range(1, n + 1)]
                    for c in clauses]
            b_ub = [sum(l < 0 for l in c) - 1 for c in clauses]
            cost = [-1 if m.value(v) else 1 for v in range(1, n + 1)]
            res = linprog(cost, A_ub=a_ub or None, b_ub=b_ub or None,
                          bounds=[(0, 1)] * n, method="highs")
            assert res.status == 0
            assert abs(float(value) - (res.fun + sum(m.bits))) < 1e-9
            assert all(2 * x in (0, 1, 2) for x in point.values())
            assert value == sum(abs(x - m.value(v)) for v, x in point.items())
            for c in clauses:
                assert sum(point[l] if l > 0 else 1 - point[-l] for l in c) >= 1


class TestIhsbRounding:
    def test_or3(self):
        f = make_formula(lang(or3=or_rel(3), impl=IMPL, f=F_REL, t=T_REL), 3,
                         [("or3", [1, 2, 3])])
        out = nsol_ihsb_rounding(f, A("000"), 3)
        assert 1 <= out.value <= 3 and out.guarantee.ratio == 3

    def test_model_returns_zero(self):
        f = make_formula(lang(impl=IMPL, t=T_REL, or2=OR2, f=F_REL), 2,
                         [("impl", [1, 2]), ("t", [1])])
        out = nsol_ihsb_rounding(f, A("11"), 2)
        assert (out.value, str(out.guarantee)) == (0, "exact")

    def test_unit_forces_exact(self):
        f = make_formula(lang(or2=OR2, f=F_REL, impl=IMPL, t=T_REL), 2,
                         [("or2", [1, 2]), ("f", [1])])
        out = nsol_ihsb_rounding(f, A("00"), 2)
        assert (out.value, str(out.witness)) == (1, "01")

    def test_dual_route(self):
        f = make_formula(lang(nand3=nand_rel(3), impl=IMPL, f=F_REL, t=T_REL), 3,
                         [("nand3", [1, 2, 3])])
        out = via_dual(nsol_ihsb_rounding, f, A("111"), 3)
        want = oracle_optimize("NSOL", f, A("111"))
        assert want.value <= out.value <= 3 * want.value


class TestAffineExact:
    def test_even3(self):
        f = make_formula(lang(even3=even_rel(3)), 3, [("even3", [1, 2, 3])])
        out = nsol_affine_exact(f, A("100"))
        assert (out.value, str(out.witness)) == (1, "000")

    def test_forced_unique(self):
        f = make_formula(lang(eq=EQ2, t=T_REL), 2, [("eq", [1, 2]), ("t", [1])])
        out = nsol_affine_exact(f, A("00"))
        assert (out.value, str(out.witness)) == (2, "11")


class TestFeasibleNapprox:
    def test_model_case(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        assert nsol_feasible_napprox(f, A("000")).value == 0

    def test_non_model(self):
        f = make_formula(lang(dup3=DUP3), 3, [("dup3", [1, 2, 3])])
        out = nsol_feasible_napprox(f, A("010"))
        assert 1 <= out.value <= 3 and satisfies(f, out.witness)

    def test_unsat(self):
        f = make_formula(lang(t=T_REL, f=F_REL), 1, [("t", [1]), ("f", [1])])
        with pytest.raises(Unsatisfiable):
            nsol_feasible_napprox(f, A("0"))


class TestDispatch:
    def test_2affine_language_gets_exact(self):
        f = make_formula(lang(x=XOR2, t=T_REL), 2, [("x", [1, 2]), ("t", [1])])
        out = solve_nsol(f, A("00"))
        assert out.guarantee.kind == "exact" and out.verdict.complexity == "PO"

    def test_or2_gets_ratio_two(self):
        f = make_formula(lang(or2=OR2), 2, [("or2", [1, 2])])
        out = solve_nsol(f, A("00"))
        assert out.guarantee.ratio == Fraction(2)
        assert out.verdict.complexity == "APX_complete"

    def test_one_in_three_approx_mode_refuses(self):
        f = make_formula(lang(o=ONE_IN_THREE), 3, [("o", [1, 2, 3])])
        with pytest.raises(NoPolyAlgorithm):
            solve_nsol(f, A("111"), mode="approx")

    def test_exact_mode_matches_oracle_on_apx_class(self):
        rng = random.Random(9)
        language = lang(or2=OR2)
        for _ in range(20):
            f, _ = random_satisfiable(language, rng, max_vars=7, max_atoms=8)
            m = random_assignment(rng, f.var_count)
            assert solve_nsol(f, m, "exact").value == oracle_optimize("NSOL", f, m).value

    def test_unit_absorption_improves_route(self):
        # dup3 with its third slot pinned is an implication, so the residual
        # classifies monotone and the answer is exact
        f = make_formula(lang(dup3=DUP3, t=T_REL), 3, [("dup3", [1, 2, 3]), ("t", [3])])
        out = solve_nsol(f, A("010"))
        assert out.guarantee.kind == "exact"
        assert out.value == oracle_optimize("NSOL", f, A("010")).value


class TestRandomizedExactRoutes:
    @pytest.mark.parametrize("family", ["iD1", "iM2", "iL2"])
    def test_equals_oracle(self, family):
        rng = random.Random(zlib.crc32(family.encode()) % 100000)
        language = FAMILY_LANGUAGES[family]
        for _ in range(60):
            f, _ = random_satisfiable(language, rng, max_vars=8, max_atoms=10)
            m = random_assignment(rng, f.var_count)
            got = solve_nsol(f, m)
            assert got.guarantee.kind == "exact"
            assert got.value == oracle_optimize("NSOL", f, m).value
            assert satisfies(f, got.witness)


class TestRatioAudit:
    @pytest.mark.parametrize(
        "family,bound", [("iD2", 2), ("iS00_2", 2), ("iS00_3", 3)]
    )
    def test_within_bound(self, family, bound):
        rng = random.Random(zlib.crc32(family.encode()) % 99991)
        language = FAMILY_LANGUAGES[family]
        for _ in range(50):
            f, _ = random_satisfiable(language, rng, max_vars=8, max_atoms=10)
            m = random_assignment(rng, f.var_count)
            got = solve_nsol(f, m)
            want = oracle_optimize("NSOL", f, m).value
            assert want <= got.value <= bound * want if want else got.value == 0


class TestLargeInstances:
    def test_polynomial_routes_beyond_the_cap(self):
        # 60-variable implication chain: far beyond oracle scale, still exact
        n = 60
        atoms = [("impl", [i, i + 1]) for i in range(1, n)]
        f = make_formula(lang(impl=IMPL, f=F_REL, t=T_REL), n, atoms)
        m = Assignment(tuple(i % 2 for i in range(n)))
        out = solve_nsol(f, m)
        assert out.guarantee.kind == "exact" and out.method == "monotone_mincut"
        assert satisfies(f, out.witness)
        # a chain model is a 0-prefix then 1-suffix; the best one flips
        # every second prefix position or suffix position of m
        assert out.value == min(
            sum(m.bits[i] != (1 if i >= cut else 0) for i in range(n))
            for cut in range(n + 1)
        )

    def test_parity_chain_beyond_the_cap(self):
        n = 50
        atoms = [("x", [i, i + 1]) for i in range(1, n)]
        f = make_formula(lang(x=XOR2, t=T_REL), n, atoms)
        m = Assignment((0,) * n)
        out = solve_nsol(f, m)
        # the two alternating colorings sit at distance n/2 from all-zero
        assert out.value == n // 2 and out.guarantee.kind == "exact"


class TestDuality:
    def test_value_invariance(self):
        rng = random.Random(31)
        for family in ("iD1", "iM2", "iL2"):
            language = FAMILY_LANGUAGES[family]
            for _ in range(15):
                f, _ = random_satisfiable(language, rng, max_vars=7, max_atoms=8)
                m = random_assignment(rng, f.var_count)
                a = solve_nsol(f, m).value
                b = solve_nsol(dualize_formula(f), m.complement()).value
                assert a == b
