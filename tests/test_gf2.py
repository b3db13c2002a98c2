import random

import numpy as np
import pytest

from gf2_oracle import (
    gauss_jordan,
    gauss_jordan_solve,
    gray_min_weight_nonzero,
    gray_nearest_codeword,
    span_min_weight_nonzero,
    span_nearest_codeword,
)
from helpers import FAMILY_LANGUAGES, random_satisfiable
from minsol import gf2
from minsol.clauses import affine_solve
from minsol.errors import TooLarge
from minsol.formulas import Assignment, satisfies

# Vectors are MSB-first: 0b110 is (1, 1, 0), coordinate 0 the leading bit.


def test_popcount_matches_int_bit_count():
    values = list(range(1 << 16)) + random.Random(16).sample(range(1 << 32), 1000)
    counts = gf2.popcount(np.array(values, dtype=np.int64))
    assert counts.tolist() == [v.bit_count() for v in values]


class TestEchelon:
    """The sparse echelon against dense Gauss-Jordan elimination."""

    @staticmethod
    def _rows(rng):
        cols = rng.randint(1, 40)
        rows = [rng.randrange(1 << cols) for _ in range(rng.randint(0, 30))]
        if rows:  # zero and duplicate rows
            rows += [0] * rng.randint(0, 2) + rng.choices(rows, k=rng.randint(0, 3))
            rng.shuffle(rows)
        return rows[:30], cols

    def test_rref_matches_gauss_jordan(self):
        rng = random.Random(27)
        for _ in range(2000):
            rows, cols = self._rows(rng)
            for prefer in (0, rng.randrange(1 << cols)):
                assert gf2._rref(rows, prefer) == gauss_jordan(rows, prefer)

    def test_solutions_match_gauss_jordan(self):
        rng = random.Random(28)
        inconsistent = 0
        for _ in range(1000):
            rows, cols = self._rows(rng)
            equations = [(row, rng.random() < 0.5) for row in rows]
            want = gauss_jordan_solve(equations, cols)
            inconsistent += want is None
            assert gf2.solve_affine(equations, cols) == want
            assert gf2.nullspace(rows, cols) == gauss_jordan_solve([(row, 0) for row in rows], cols)[1]
        assert inconsistent


class TestSolveAffine:
    def test_single_equation(self):
        # x1 + x2 = 1: particular has free columns zero -> x = (1, 0)
        got = gf2.solve_affine([(0b11, 1)], 2)
        assert got is not None
        particular, basis = got
        assert particular == 0b10
        assert basis == [0b11]

    def test_identity(self):
        got = gf2.solve_affine([(0b10, 1), (0b01, 1)], 2)
        particular, basis = got
        assert particular == 0b11
        assert basis == []

    def test_inconsistent(self):
        assert gf2.solve_affine([(0b11, 1), (0b11, 0)], 2) is None

    def test_random_systems_match_nullspace(self):
        # the basis read off the augmented elimination is the nullspace of
        # the bare rows; a dependent row with a flipped bit is inconsistent
        rng = random.Random(15)
        for _ in range(300):
            cols = rng.randint(1, 12)
            rows = [rng.randrange(1 << cols) for _ in range(rng.randint(0, cols + 3))]
            x = rng.randrange(1 << cols)
            equations = [(row, (row & x).bit_count() % 2) for row in rows]
            particular, basis = gf2.solve_affine(equations, cols)
            assert basis == gf2.nullspace(rows, cols)
            assert all((row & particular).bit_count() % 2 == b for row, b in equations)
            if rows:
                row = b = 0
                for r, bit in [e for e in equations if rng.random() < 0.5] or equations[:1]:
                    row, b = row ^ r, b ^ bit
                assert gf2.solve_affine(equations + [(row, b ^ 1)], cols) is None


class TestMinWeight:
    def test_single_vector(self):
        assert gf2.min_weight_nonzero([0b111], 3) == (3, 0b111)

    def test_zero_dimensional(self):
        assert gf2.min_weight_nonzero([], 3) is None

    def test_three_combinations(self):
        # span {110, 011, 101}: weight ties break to the lexicographically
        # smallest vector (first coordinate most significant), so 011 wins
        w, v = gf2.min_weight_nonzero([0b110, 0b011], 3)
        assert w == 2
        assert v == 0b011

    def test_cap(self):
        # 25 unit rows hold weight-1 members, yet the dimension cap refuses them
        with pytest.raises(TooLarge):
            gf2.min_weight_nonzero([1 << i for i in range(25)], 25)
        with pytest.raises(TooLarge):
            gf2.nearest_codeword([1 << i for i in range(25)], 25, 1)


class TestNearestCodeword:
    def test_identity_generator(self):
        rows = [0b01, 0b10]
        dist, msg = gf2.nearest_codeword(rows, 2, 0b10)
        assert dist == 0

    def test_tie_breaks_to_smaller_message(self):
        # single row (1,1); target 10: both messages give distance 1
        dist, msg = gf2.nearest_codeword([0b11], 2, 0b10)
        assert (dist, msg) == (1, 0)

    def test_zero_rows(self):
        assert gf2.nearest_codeword([], 3, 0b101) == (2, 0)


class TestRandomized:
    def test_rank_nullity_and_solutions(self):
        rng = random.Random(5)
        for _ in range(300):
            cols = rng.randint(1, 12)
            k = rng.randint(0, 8)
            rows = [rng.randrange(1 << cols) for _ in range(k)]
            rhs = [rng.randint(0, 1) for _ in range(k)]
            assert gf2.rank(rows, cols) + len(gf2.nullspace(rows, cols)) == cols
            got = gf2.solve_affine(list(zip(rows, rhs)), cols)
            truth = [
                x
                for x in range(1 << cols)
                if all((row & x).bit_count() % 2 == b for row, b in zip(rows, rhs))
            ]
            if got is None:
                assert not truth
                continue
            particular, basis = got
            assert particular in truth
            assert len(truth) == 1 << len(basis)
            for v in basis:
                assert all((row & v).bit_count() % 2 == 0 for row in rows)

    def test_min_weight_matches_enumeration(self):
        rng = random.Random(6)
        for _ in range(200):
            cols = rng.randint(1, 10)
            dim = rng.randint(0, min(6, cols))
            basis = gf2.rref_basis([rng.randrange(1, 1 << cols) for _ in range(dim)], cols)
            got = gf2.min_weight_nonzero(basis, cols)
            span = {0}
            for v in basis:
                span |= {s ^ v for s in span}
            nonzero = sorted(span - {0})
            if got is None:
                assert not nonzero
            else:
                assert got[0] == min(v.bit_count() for v in nonzero)
            assert got == gray_min_weight_nonzero(basis)

    def test_nearest_codeword_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(200):
            cols = rng.randint(1, 10)
            k = rng.randint(0, 6)
            rows = [rng.randrange(1 << cols) for _ in range(k)]
            target = rng.randrange(1 << cols)
            dist, msg = gf2.nearest_codeword(rows, cols, target)
            truth = min(
                (_codeword(rows, x) ^ target).bit_count() for x in range(1 << k)
            )
            assert dist == truth
            assert (_codeword(rows, msg) ^ target).bit_count() == dist
            assert (dist, msg) == gray_nearest_codeword(rows, target)


def _tie_heavy(rng, dim, cols):
    """Rows of weight 1 or 2 over a few columns, with repeats, and the
    lexicographically smallest nonzero vector last, so ties span the high
    rows as well as the table."""
    pool = [(1 << rng.randrange(cols)) | (1 << rng.randrange(cols)) for _ in range(4)]
    rows = [rng.choice(pool) for _ in range(dim - 1)]
    return rows + [1] if dim else rows


class TestBlockedAgainstGrayCode:
    # 16 rows fill one table; the 17th shifts it, across the block boundary.
    # 32-bit limbs: 31/32/33 and 64/65 columns straddle limb boundaries.
    @pytest.mark.parametrize("cols", [31, 32, 33, 64, 65, 200])
    @pytest.mark.parametrize("dim", [0, 1, 5, 16, 17])
    def test_same_answers_ties_included(self, dim, cols):
        rng = random.Random(dim * 1000 + cols)
        bases = [
            [rng.randrange(1, 1 << cols) for _ in range(dim)],
            _tie_heavy(rng, dim, cols),
        ]
        for basis in bases:
            target = rng.randrange(1 << cols)
            assert gf2.min_weight_nonzero(basis, cols) == gray_min_weight_nonzero(basis)
            assert gf2.nearest_codeword(basis, cols, target) == gray_nearest_codeword(basis, target)
            # a target inside the code ties every message that reaches it
            inside = basis[0] ^ basis[-1] if dim else 0
            assert gf2.nearest_codeword(basis, cols, inside) == gray_nearest_codeword(basis, inside)


def _planted(rng, dim, cols, weight):
    """Random rows over `cols` columns whose span holds a planted member
    of the given weight, XORed into every row but the last."""
    planted = sum(1 << c for c in rng.sample(range(cols), weight))
    rows = [rng.randrange(1, 1 << cols) for _ in range(dim - 1)]
    return [r ^ planted for r in rows] + [rows[0]]


def _repetition_like(rng, dim):
    """Row i repeats a 1 over its own six columns, plus noise in 8 columns
    below: minimum weight at least six, and from a random target no
    column set prunes the nearest-codeword search."""
    return [(0b111111 << (6 * i + 8)) | rng.randrange(1 << 8) for i in range(dim)], 6 * dim + 8


class _Spy:
    """Records what `gf2._bz_search` does: the forms it builds, with
    their new pivots, and the forms that run each round."""

    def __init__(self, monkeypatch):
        self.built: list[tuple[int, int]] = []  # (rows, new pivots)
        self.rounds: dict[int, set[int]] = {}
        rref, round_ = gf2._rref, gf2._round

        def spy_rref(rows, prefer=0):
            reduced, pivots = rref(rows, prefer)
            if prefer:
                self.built.append((len(rows), sum(prefer >> p & 1 for p in pivots)))
            return reduced, pivots

        def spy_round(rows, base, r, tail, score, best):
            self.rounds.setdefault(r, set()).add(id(rows))
            return round_(rows, base, r, tail, score, best)

        monkeypatch.setattr(gf2, "_rref", spy_rref)
        monkeypatch.setattr(gf2, "_round", spy_round)

    def reset(self):
        self.built.clear()
        self.rounds.clear()

    def dropped(self) -> bool:
        """Whether several forms ran a round and one form alone ran the last."""
        last = self.rounds[max(self.rounds)] if self.rounds else ()
        return len(last) == 1 and any(len(forms) > 1 for forms in self.rounds.values())


class TestLayerSearch:
    """The Brouwer-Zimmermann search, by layers of row combinations over
    several information sets, against the whole-span references: the
    Gray code up to dimension 20 and the numpy span enumeration above.
    The inputs run each path: the first form's bound alone, later forms
    joining, forms with a deficit and the drop back to the first form."""

    @pytest.mark.parametrize("dim", [18, 20])
    @pytest.mark.parametrize("weight", [1, 2])
    def test_bound_stops_the_search(self, monkeypatch, dim, weight):
        rng = random.Random(dim * 10 + weight)
        cols = 48
        basis = _planted(rng, dim, cols, weight)
        error = sum(1 << c for c in rng.sample(range(cols), weight))
        inside = basis[1] ^ basis[dim // 2]
        want = [
            gray_min_weight_nonzero(basis),
            gray_nearest_codeword(basis, inside ^ error),
            gray_nearest_codeword(basis, inside),
        ]
        spy = _Spy(monkeypatch)
        got = [
            gf2.min_weight_nonzero(basis, cols),
            gf2.nearest_codeword(basis, cols, inside ^ error),
            gf2.nearest_codeword(basis, cols, inside),
        ]
        assert got == want
        assert got[0][0] <= weight and got[1][0] <= weight and got[2][0] == 0
        assert not spy.built  # the first form's bound settles small answers

    @pytest.mark.parametrize("dim", [22, 24])
    def test_bound_stops_at_the_cap(self, monkeypatch, dim):
        # the Gray code takes seconds here; the numpy span enumeration,
        # checked against it below, is the reference
        rng = random.Random(dim)
        cols = 64
        spy = _Spy(monkeypatch)
        for weight in (1, 2):
            basis = _planted(rng, dim, cols, weight)
            target = basis[0] ^ basis[-1] ^ (1 << rng.randrange(cols))
            got = gf2.min_weight_nonzero(basis, cols), gf2.nearest_codeword(basis, cols, target)
            assert got == (span_min_weight_nonzero(basis, cols), span_nearest_codeword(basis, cols, target))
            assert got[0][0] <= weight and got[1][0] <= 1
        assert not spy.built

    @pytest.mark.parametrize("dim", [21, 23])
    def test_high_weights_at_the_cap(self, monkeypatch, dim):
        # a planted weight of dim / 2 over 4 * dim columns, and a random
        # target over 2 * dim columns: later forms settle both
        rng = random.Random(dim)
        spy = _Spy(monkeypatch)
        cases = [(_planted(rng, dim, 4 * dim, dim // 2), 4 * dim)]
        cases.append(([rng.randrange(1, 1 << 2 * dim) for _ in range(dim)], 2 * dim))
        for basis, cols in cases:
            target = rng.randrange(1 << cols)
            got = gf2.min_weight_nonzero(basis, cols), gf2.nearest_codeword(basis, cols, target)
            assert got == (span_min_weight_nonzero(basis, cols), span_nearest_codeword(basis, cols, target))
        assert spy.built

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_small_dimensions_match_the_gray_code(self, dim):
        rng = random.Random(dim)
        cols = 30
        bases = [[rng.randrange(1, 1 << cols) for _ in range(dim)] for _ in range(20)]
        bases = [gf2.rref_basis(b, cols) for b in bases]
        bases = [b for b in bases if len(b) == dim]
        targets = [rng.randrange(1 << cols) for _ in bases]
        want = [
            (gray_min_weight_nonzero(b), gray_nearest_codeword(b, t)) for b, t in zip(bases, targets)
        ]
        got = [
            (gf2.min_weight_nonzero(b, cols), gf2.nearest_codeword(b, cols, t))
            for b, t in zip(bases, targets)
        ]
        assert got == want

    @pytest.mark.parametrize("dim", [12, 14])
    def test_high_distance_codes_enumerate_the_span(self, monkeypatch, dim):
        # repetition-like rows: every row ties at the bottom, and the
        # minimum weight of at least six is settled by the forms on the
        # other columns of each block.  From a far target no bound prunes,
        # so the nearest codeword runs every round: the whole span
        rng = random.Random(dim)
        basis, cols = _repetition_like(rng, dim)
        target = rng.randrange(1 << cols)
        spy = _Spy(monkeypatch)
        found = gf2.min_weight_nonzero(basis, cols)
        assert found == gray_min_weight_nonzero(basis)
        assert found[0] >= dim // 2
        assert spy.built and all(new == dim for _, new in spy.built)
        spy.reset()
        assert gf2.nearest_codeword(basis, cols, target) == gray_nearest_codeword(basis, target)
        assert max(spy.rounds) == dim

    def test_every_path_against_the_gray_code(self, monkeypatch):
        # dimensions 9-16 over dim + 1 to 6 * dim columns: planted near
        # targets, random far targets, sparse rows, and dependent rows
        # with zero rows among them
        rng = random.Random(25)
        spy = _Spy(monkeypatch)
        partial = joined = dropped = 0
        for _ in range(120):
            dim = rng.randint(9, 16)
            cols = rng.randint(dim + 1, 6 * dim)
            kind = rng.choice(["planted", "random", "sparse", "dependent"])
            if kind == "planted":
                rows = _planted(rng, dim, cols, rng.randint(1, min(cols, dim)))
            elif kind == "random":
                rows = [rng.randrange(1 << cols) for _ in range(dim)]
            elif kind == "sparse":
                rows = [sum(1 << rng.randrange(cols) for _ in range(rng.randint(2, 8))) for _ in range(dim)]
            else:
                half = [rng.randrange(1 << cols) for _ in range(dim // 2)] + [0]
                rows = [rng.choice(half) ^ rng.choice(half) for _ in range(dim)]
            near = 0
            for row in rows:
                near ^= row if rng.random() < 0.5 else 0
            near ^= sum(1 << rng.randrange(cols) for _ in range(rng.randint(0, dim // 2)))
            searches = [(gf2.min_weight_nonzero, (rows, cols), gray_min_weight_nonzero(rows))]
            for target in (near, rng.randrange(1 << cols)):
                searches.append((gf2.nearest_codeword, (rows, cols, target), gray_nearest_codeword(rows, target)))
            for search, args, want in searches:
                spy.reset()
                assert search(*args) == want
                partial += any(new < k for k, new in spy.built)
                joined += any(len(forms) > 1 for forms in spy.rounds.values())
                dropped += spy.dropped()
        assert partial and joined and dropped

    def test_ties_at_the_joint_bound(self):
        # two forms on 20 columns.  First with no deficit: after round 2
        # the bound 3 + 3 equals the best distance found.  Then with the
        # second form on 8 new columns and one old one (deficit 1): the
        # bound 3 + (3 - 1) equals it.  Either way only round 3 reaches the
        # smallest message at that distance, so only a strict stop on the
        # exact bound finds it
        rows = [4256, 2177, 1282, 65608, 262276, 524832, 8195, 16394, 131328, 32784]
        assert gf2.nearest_codeword(rows, 20, 154974) == gray_nearest_codeword(rows, 154974) == (6, 384)
        rows = [693602, 43689, 810129, 74722, 456795, 660984, 722955, 953029, 499082]
        assert gf2.nearest_codeword(rows, 20, 859060) == gray_nearest_codeword(rows, 859060) == (5, 480)

    def test_dependent_rows(self):
        # repeated and dependent rows share codewords between messages, so
        # the smallest message among them must still win the tie
        rng = random.Random(11)
        for dim in (2, 5, 9, 12):
            for cols in (3, 10, 40):
                half = [rng.randrange(1 << cols) for _ in range(dim // 2)]
                rows = (half + [half[0], half[0] ^ half[-1], 0] + rng.choices(half, k=dim))[:dim]
                rng.shuffle(rows)
                for target in (rng.randrange(1 << cols), rows[0] ^ rows[-1], 0):
                    got = gf2.nearest_codeword(rows, cols, target)
                    assert got == gray_nearest_codeword(rows, target)
                assert gf2.min_weight_nonzero(rows, cols) == gray_min_weight_nonzero(rows)

    def test_dimension_zero(self):
        assert gf2.min_weight_nonzero([], 5) is None
        assert gf2.min_weight_nonzero([0, 0], 5) is None
        assert gf2.nearest_codeword([], 5, 0b10110) == (3, 0)
        assert gf2.nearest_codeword([], 5, 0) == (0, 0)
        assert gf2.nearest_codeword([0, 0], 5, 0b10110) == (3, 0)


@pytest.mark.parametrize("cols", [31, 33, 65])
@pytest.mark.parametrize("dim", [1, 16, 17])
def test_span_reference_matches_the_gray_code(dim, cols):
    # 16 rows fill one table; the 17th shifts it, across the block
    # boundary.  32-bit limbs: 31/33 and 65 columns straddle limb boundaries
    rng = random.Random(dim * 100 + cols)
    for basis in ([rng.randrange(1, 1 << cols) for _ in range(dim)], _tie_heavy(rng, dim, cols)):
        target = rng.randrange(1 << cols)
        assert span_min_weight_nonzero(basis, cols) == gray_min_weight_nonzero(basis)
        assert span_nearest_codeword(basis, cols, target) == gray_nearest_codeword(basis, target)


class TestAffineFormulas:
    def test_coset_codes_are_the_models(self):
        # the basis and particular solution of a formula's parity system are
        # assignment codes: every coset member decodes to a model, and the
        # coset has as many members as the formula has models
        rng = random.Random(8)
        for _ in range(200):
            language = FAMILY_LANGUAGES[rng.choice(["iL2", "iD1"])]
            formula, codes = random_satisfiable(language, rng, max_vars=8, max_atoms=6)
            n = formula.var_count
            particular, basis = affine_solve(formula)
            span = {0}
            for v in basis:
                span |= {s ^ v for s in span}
            for c in span:
                assert satisfies(formula, Assignment.from_code(particular ^ c, n))
            assert len(span) == len(codes)


def _codeword(rows, x):
    out = 0
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            out ^= row
    return out
