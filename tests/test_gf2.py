import random

import numpy as np
import pytest

from gf2_oracle import gray_min_weight_nonzero, gray_nearest_codeword
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


def _no_span(*args, **kwargs):
    raise AssertionError("the layer bound should have stopped the search")


def _planted(rng, dim, cols, weight):
    """Random rows over `cols` columns whose span holds a planted member
    of the given weight, XORed into every row but the last."""
    planted = sum(1 << c for c in rng.sample(range(cols), weight))
    rows = [rng.randrange(1, 1 << cols) for _ in range(dim - 1)]
    return [r ^ planted for r in rows] + [rows[0]]


class TestLayerSearch:
    """The layer search against the Gray-code oracle on the inputs that
    pick each path: stopped by the bound, handed to the blocked
    enumeration, and the dependent rows that skip the layers."""

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
        monkeypatch.setattr(gf2, "_span_blocks", _no_span)
        got = [
            gf2.min_weight_nonzero(basis, cols),
            gf2.nearest_codeword(basis, cols, inside ^ error),
            gf2.nearest_codeword(basis, cols, inside),
        ]
        assert got == want
        assert got[0][0] <= weight and got[1][0] <= weight and got[2][0] == 0

    @pytest.mark.parametrize("dim", [22, 24])
    def test_bound_stops_at_the_cap(self, monkeypatch, dim):
        # the Gray code takes seconds here; the blocked enumeration, checked
        # against it above the table size, is the reference
        rng = random.Random(dim)
        cols = 64
        for weight in (1, 2):
            basis = _planted(rng, dim, cols, weight)
            target = basis[0] ^ basis[-1] ^ (1 << rng.randrange(cols))
            want = gf2._min_weight_blocks(basis, cols), gf2._nearest_blocks(basis, cols, target)
            with monkeypatch.context() as patch:
                patch.setattr(gf2, "_span_blocks", _no_span)
                weight_got = gf2.min_weight_nonzero(basis, cols)
                distance, message = gf2.nearest_codeword(basis, cols, target)
            assert weight_got == want[0] and weight_got[0] <= weight
            assert (distance, int(f"{message:0{dim}b}"[::-1], 2)) == want[1]
            assert distance <= 1

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_small_dimensions_never_enumerate_the_span(self, monkeypatch, dim):
        rng = random.Random(dim)
        cols = 30
        bases = [[rng.randrange(1, 1 << cols) for _ in range(dim)] for _ in range(20)]
        bases = [gf2.rref_basis(b, cols) for b in bases]
        bases = [b for b in bases if len(b) == dim]
        targets = [rng.randrange(1 << cols) for _ in bases]
        want = [
            (gray_min_weight_nonzero(b), gray_nearest_codeword(b, t)) for b, t in zip(bases, targets)
        ]
        monkeypatch.setattr(gf2, "_span_blocks", _no_span)
        got = [
            (gf2.min_weight_nonzero(b, cols), gf2.nearest_codeword(b, cols, t))
            for b, t in zip(bases, targets)
        ]
        assert got == want

    @pytest.mark.parametrize("dim", [12, 14])
    def test_high_distance_codes_enumerate_the_span(self, monkeypatch, dim):
        # repetition-like rows: row i repeats a 1 over its own six columns
        # plus noise below, so the minimum weight is at least six, the
        # layers would pass their budget, and every row ties at the bottom
        rng = random.Random(dim)
        cols = 6 * dim + 8
        basis = [(0b111111 << (6 * i + 8)) | rng.randrange(1 << 8) for i in range(dim)]
        target = rng.randrange(1 << cols)
        spans = []
        real = gf2._span_blocks
        monkeypatch.setattr(gf2, "_span_blocks", lambda *a: spans.append(a) or real(*a))
        found = gf2.min_weight_nonzero(basis, cols)
        assert found == gray_min_weight_nonzero(basis)
        assert found[0] >= dim // 2
        assert gf2.nearest_codeword(basis, cols, target) == gray_nearest_codeword(basis, target)
        assert len(spans) == 2

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

    def test_dimension_zero(self, monkeypatch):
        monkeypatch.setattr(gf2, "_span_blocks", _no_span)
        assert gf2.min_weight_nonzero([], 5) is None
        assert gf2.min_weight_nonzero([0, 0], 5) is None
        assert gf2.nearest_codeword([], 5, 0b10110) == (3, 0)
        assert gf2.nearest_codeword([], 5, 0) == (0, 0)


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
