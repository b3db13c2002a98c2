import random
from fractions import Fraction

import pytest

from minsol.errors import InternalConsistencyError
from minsol.lp import LpProblem, lp_solve


def cover(*vs):
    return (tuple(vs), ())


def implies(a, b):
    return ((b,), (a,))


def lp(n, objective, *constraints):
    return LpProblem(n, tuple(constraints), tuple(objective))


class TestExamples:
    def test_single_variable(self):
        value, point = lp_solve(lp(1, [1], cover(0)))
        assert value == 1 and point == [1]

    def test_covering_pair(self):
        value, _ = lp_solve(lp(2, [1, 1], cover(0, 1)))
        assert value == 1

    def test_half_integral_triangle(self):
        value, point = lp_solve(lp(3, [1, 1, 1], cover(0, 1), cover(1, 2), cover(0, 2)))
        assert value == Fraction(3, 2)
        assert all(x == Fraction(1, 2) for x in point)

    def test_third_integral_rows(self):
        # every triple of four variables covered: 4/3 at x = 1/3 each
        rows = [cover(a, b, c) for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
        value, point = lp_solve(lp(4, [1, 1, 1, 1], *rows))
        assert value == Fraction(4, 3)
        assert all(x == Fraction(1, 3) for x in point)

    def test_implication_cycle_moves_together(self):
        # 0 -> 1 -> 2 -> 0 forces equal values; the row forces them up
        cycle = (implies(0, 1), implies(1, 2), implies(2, 0))
        value, point = lp_solve(lp(3, [1, -1, 1], *cycle, cover(0)))
        assert value == 1 and point == [1, 1, 1]

    def test_no_constraints_is_box_optimum(self):
        value, point = lp_solve(lp(3, [1, -1, 0]))
        assert value == -1 and point[:2] == [0, 1]

    def test_deterministic(self):
        p = lp(3, [1, 1, -1], cover(0, 1), implies(2, 0), implies(0, 2))
        assert lp_solve(p) == lp_solve(p)

    def test_rejects_other_shapes(self):
        with pytest.raises(InternalConsistencyError):
            lp_solve(lp(2, [1, 1], ((), (0, 1))))  # x0 + x1 <= 1 is neither shape
        with pytest.raises(InternalConsistencyError):
            lp_solve(lp(1, [1], cover(1)))


def random_covering_lp(rng: random.Random, n: int, k: int):
    """Covering rows of width 1..k and implications (with cycles) over n variables."""
    cons = []
    for _ in range(rng.randint(0, 2 * n)):
        cons.append(cover(*rng.sample(range(n), rng.randint(1, min(k, n)))))
    for _ in range(rng.randint(0, n + 2) if n > 1 else 0):
        cons.append(implies(*rng.sample(range(n), 2)))
    if n > 2 and rng.random() < 0.5:  # an implication cycle
        cyc = rng.sample(range(n), rng.randint(2, min(n, 5)))
        cons += [implies(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    rng.shuffle(cons)
    objective = [rng.choice((-1, 1)) if rng.random() < 0.9 else rng.randint(-3, 3)
                 for _ in range(n)]
    return lp(n, objective, *cons)


class TestAgainstScipy:
    def test_random_problems(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(11)
        for trial in range(160):
            n = rng.randint(1, 8) if trial < 100 else rng.randint(20, 60)
            p = random_covering_lp(rng, n, rng.randint(1, 4))
            a_ub, b_ub = [], []
            for pos, neg in p.constraints:
                row = [0] * n
                for v in pos:
                    row[v] -= 1
                for v in neg:
                    row[v] += 1
                a_ub.append(row)
                b_ub.append(len(neg) - 1)
            res = linprog(
                list(p.objective),
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                bounds=[(0, 1)] * n,
                method="highs",
            )
            assert res.status == 0
            value, point = lp_solve(p)
            assert abs(float(value) - res.fun) < 1e-9
            assert value == sum(c * x for c, x in zip(p.objective, point))
            assert all(0 <= x <= 1 for x in point)
            for pos, neg in p.constraints:
                assert sum(point[v] for v in pos) + sum(1 - point[v] for v in neg) >= 1
