"""Boolean relations, their closure properties, and clause decompositions.

A relation of arity n is stored as a membership table over the 2**n tuple
codes, where the integer code of a tuple has the first coordinate as its
most significant bit ("0110" -> 6).  The same MSB-first convention is used
for truth tables of Boolean functions, for assignment bitstrings and for
GF(2) vectors, so lexicographic order on bitstrings is numeric order on
codes everywhere.

Whether f preserves r is decided on sets of codes, ints with bit c for
code c as `Relation.mask` is: r is closed under a clone generator iff it
holds the images of the generator's clone on r (the clones of Boehler,
Creignou, Reith and Vollmer, SIGACT News 34(4), 2003), a few tests of
O(n**2) whole-set operations whatever |r| is (`_GENERATOR_TESTS`).  Under
| the images are the joins of the members below them; under xor3 r is
affine (once shifted by its least member, each upper half of a linear
subspace is its lower half shifted); under maj r is the join of its binary
projections (Baker and Pixley, Math. Z. 143, 1975).  With column j the
members whose bit j is set, the images under S0 = [->], the functions
above one of their arguments, are the codes above a member constant on
equal columns; under S02 = [x | (y & -z)] = S0 & R2 also 0 on all-zero
columns, and under S00 = [x | (y & z)] = S02 & M also ordered as their
columns are.  Duals run on the complemented tuples.

Closure questions have one answer, the polymorphism test: a relation
admits a clause shape iff the shape's clone generators preserve it
(`_SHAPE_CLONES`: horn by and, dual_horn by or, bijunctive by majority,
monotone by and and or, parity by xor3, ihsb_pos by x | (y & z) and
ihsb_neg by x & (y | z), the last two with projection width at most k).
A disjunctive decomposition is the relation's prime implicates with at
most one positive or at most one negative literal, read off the mask in
O(n**2) whole-set operations (`_prime_implicates`): a code stands for the
positive clause of its 0 bits, an implicate iff it lies above no member.
Every prime implicate of a relation that a shape admits already has the
shape's clause form, so one kernel serves every shape.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .errors import InternalConsistencyError, ParseError, ShapeUnavailable

MAX_RELATION_ARITY = 16
# Bound on truth-table arity; the classifier itself needs arity 3 at most.
MAX_FUNCTION_ARITY = 18


def tuple_code(bits: Sequence[int]) -> int:
    """Integer code of a bit tuple, first coordinate most significant."""
    code = 0
    for b in bits:
        code = (code << 1) | (b & 1)
    return code


def code_bits(code: int, arity: int) -> tuple[int, ...]:
    return tuple((code >> (arity - 1 - i)) & 1 for i in range(arity))


@dataclass(frozen=True)
class Relation:
    """A nonempty Boolean relation of fixed arity."""

    arity: int
    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_RELATION_ARITY:
            raise ParseError(f"relation arity {self.arity} outside 1..{MAX_RELATION_ARITY}")
        if self.mask <= 0:
            raise ParseError("empty relations are rejected")
        if self.mask >> (1 << self.arity):
            raise ParseError("membership table longer than 2**arity")

    @classmethod
    def from_tuples(cls, arity: int, tuples: Iterable[Sequence[int] | int | str]) -> "Relation":
        mask = 0
        for t in tuples:
            if isinstance(t, int):
                code = t
            elif isinstance(t, str):
                if len(t) != arity or set(t) - {"0", "1"}:
                    raise ParseError(f"bad tuple {t!r} for arity {arity}")
                code = int(t, 2)
            else:
                if len(t) != arity:
                    raise ParseError(f"tuple {t} has wrong length for arity {arity}")
                code = tuple_code(t)
            if not 0 <= code < (1 << arity):
                raise ParseError(f"tuple code {code} out of range for arity {arity}")
            mask |= 1 << code
        return cls(arity, mask)

    def tuples(self) -> tuple[int, ...]:
        """Member tuple codes in ascending (lexicographic) order."""
        return tuple(np.flatnonzero(membership_table(self.arity, self.mask)).tolist())

    def bit_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(code_bits(c, self.arity) for c in self.tuples())

    def contains(self, code: int) -> bool:
        return bool((self.mask >> code) & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def is_full(self) -> bool:
        return self.mask == (1 << (1 << self.arity)) - 1

    def restrict(self, coord: int, value: int) -> "Relation | None":
        """Pin one 0-based coordinate to a value; None if that empties it.

        The result keeps the remaining coordinates in order (arity - 1).
        """
        if self.arity == 1:
            raise InternalConsistencyError("cannot restrict a unary relation further")
        lows, j = _low(self.arity), self.arity - 1 - coord
        mask = (self.mask >> (value << j)) & lows[j]
        for k in range(j + 1, self.arity):  # bit k of each code moves to bit k - 1
            mask = (mask & lows[k]) | ((mask & ~lows[k]) >> (1 << (k - 1)))
        return Relation(self.arity - 1, mask) if mask else None

    def __str__(self) -> str:
        rows = ",".join("".join(map(str, r)) for r in self.bit_rows())
        return f"Relation({self.arity}:{rows})"


@dataclass(frozen=True)
class BoolFunction:
    """A Boolean function given by its truth table (MSB-first argument code)."""

    arity: int
    table: int
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_FUNCTION_ARITY:
            raise ParseError(f"function arity {self.arity} outside 1..{MAX_FUNCTION_ARITY}")
        if self.table >> (1 << self.arity):
            raise ParseError("truth table longer than 2**arity")

    @classmethod
    def from_callable(cls, arity: int, fn, name: str = "") -> "BoolFunction":
        table = 0
        for code in range(1 << arity):
            if fn(*code_bits(code, arity)):
                table |= 1 << code
        return cls(arity, table, name)

    def value(self, code: int) -> int:
        return (self.table >> code) & 1

    def apply_bits(self, bits: Sequence[int]) -> int:
        return self.value(tuple_code(bits))

    def __str__(self) -> str:
        return self.name or f"fn{self.arity}:{self.table:x}"


# --- named functions (clone bases) -----------------------------------------

ID1 = BoolFunction(1, 0b10, "id")
NOT1 = BoolFunction(1, 0b01, "not")
CONST0 = BoolFunction(1, 0b00, "const0")
CONST1 = BoolFunction(1, 0b11, "const1")
AND2 = BoolFunction(2, 0b1000, "and")
OR2F = BoolFunction(2, 0b1110, "or")
XOR2F = BoolFunction(2, 0b0110, "xor")
XNOR2F = BoolFunction(2, 0b1001, "xnor")
IMPL2F = BoolFunction(2, 0b1011, "impl")
ANDNOT2 = BoolFunction(2, 0b0100, "andnot")
MAJ3 = BoolFunction.from_callable(3, lambda x, y, z: x + y + z >= 2, "maj")
XOR3 = BoolFunction.from_callable(3, lambda x, y, z: (x + y + z) % 2, "xor3")
XNOR3 = BoolFunction.from_callable(3, lambda x, y, z: (x + y + z + 1) % 2, "xnor3")
OR_AND3 = BoolFunction.from_callable(3, lambda x, y, z: x | (y & z), "or_and")
OR_ANDNOT3 = BoolFunction.from_callable(3, lambda x, y, z: x | (y & (1 - z)), "or_andnot")
AND_OR3 = BoolFunction.from_callable(3, lambda x, y, z: x & (y | z), "and_or")
AND_ORNOT3 = BoolFunction.from_callable(3, lambda x, y, z: x & (y | (1 - z)), "and_ornot")


# --- named relations --------------------------------------------------------


def _full_minus(arity: int, excluded: Iterable[int]) -> Relation:
    mask = (1 << (1 << arity)) - 1
    for c in excluded:
        mask &= ~(1 << c)
    return Relation(arity, mask)


def or_rel(m: int) -> Relation:
    return _full_minus(m, [0])


def nand_rel(m: int) -> Relation:
    return _full_minus(m, [(1 << m) - 1])


def even_rel(m: int) -> Relation:
    return Relation.from_tuples(m, [c for c in range(1 << m) if c.bit_count() % 2 == 0])


def odd_rel(m: int) -> Relation:
    return Relation.from_tuples(m, [c for c in range(1 << m) if c.bit_count() % 2 == 1])


def clause_rel(arity: int, positives: Sequence[int], negatives: Sequence[int]) -> Relation:
    """Relation of a single clause over coordinates 0..arity-1."""
    tuples = []
    for c in range(1 << arity):
        bits = code_bits(c, arity)
        if any(bits[i] for i in positives) or any(not bits[i] for i in negatives):
            tuples.append(c)
    return Relation.from_tuples(arity, tuples)


T_REL = Relation(1, 0b10)  # [x]
F_REL = Relation(1, 0b01)  # [not x]
EQ2 = Relation(2, 0b1001)
XOR2 = odd_rel(2)
IMPL = Relation(2, 0b1011)  # [x -> y]
OR2 = or_rel(2)
NAND2 = nand_rel(2)
DUP3 = _full_minus(3, [0b010, 0b101])
NAE3 = _full_minus(3, [0b000, 0b111])
ONE_IN_THREE = Relation.from_tuples(3, [0b001, 0b010, 0b100])
HORN3 = clause_rel(3, positives=[2], negatives=[0, 1])  # [-x | -y | z]
DUALHORN3 = clause_rel(3, positives=[0, 1], negatives=[2])  # [x | y | -z]

BUILTIN_RELATIONS: dict[str, Relation] = {
    "or2": OR2,
    "impl": IMPL,
    "nand2": NAND2,
    "even3": even_rel(3),
    "even4": even_rel(4),
    "odd3": odd_rel(3),
    "dup3": DUP3,
    "nae3": NAE3,
    "one_in_three": ONE_IN_THREE,
    "t": T_REL,
    "f": F_REL,
}


# --- polymorphisms -----------------------------------------------------------


def membership_table(arity: int, mask: int) -> np.ndarray:
    """A mask as a bool array over the 2**arity codes."""
    packed = np.frombuffer(mask.to_bytes(max(1, (1 << arity) // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")[: 1 << arity].view(bool)


@functools.lru_cache(maxsize=None)
def _low(n: int) -> tuple[int, ...]:
    """`_low(n)[j]` is the set of codes whose bit j is clear: 2**j ones then
    2**j zeros, repeated.  Each set of `_low(n - 1)` repeats twice, and the
    lower half is the new top bit's."""
    if n == 0:
        return ()
    half = 1 << (n - 1)
    return tuple(low | low << half for low in _low(n - 1)) + ((1 << half) - 1,)


@functools.lru_cache(maxsize=None)
def _weight_sets(b: int) -> tuple[int, ...]:
    """`_weight_sets(b)[w]` is the set of b-bit codes with w bits set: those
    of b - 1 bits with w bits set, and above them those with w - 1."""
    if b == 0:
        return (1,)
    lower = _weight_sets(b - 1) + (0,)
    return (lower[0],) + tuple(lower[w] | lower[w - 1] << (1 << (b - 1)) for w in range(1, b + 1))


@functools.lru_cache(maxsize=None)
def swap_mask(n: int, p: int, q: int) -> int:
    """The n-bit codes with bit q set and bit p clear, p > q: the lower
    side of the delta swap that exchanges bits p and q of every code."""
    lows = _low(n)
    return lows[p] & ~lows[q]


def swap_bits(m: int, d: int, side: int) -> int:
    """The set m with bits p and q of every code exchanged, given
    d = 2**p - 2**q and side = swap_mask(n, p, q): one delta swap."""
    t = ((m >> d) ^ m) & side
    return m ^ t ^ (t << d)


def sorted_atom(rel: Relation, variables: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The members of `rel` on `variables`, as a set of codes over the
    distinct variables in ascending order, the least one the most
    significant coordinate.  The set depends only on the relation and on
    the rank pattern of the variables (`_pattern_mask`)."""
    vs = sorted(set(variables))
    return tuple(vs), _pattern_mask(rel.mask, tuple(map(vs.index, variables)))


@functools.lru_cache(maxsize=1024)
def _pattern_mask(m: int, pattern: tuple[int, ...]) -> int:
    """`sorted_atom` of the relation with mask m on variables of the given
    ranks.  Of two coordinates on one variable the members keep those
    where they agree, and the first is swapped to the top and dropped;
    then one swap per coordinate sorts the rest."""
    vs = list(pattern)
    while len(set(vs)) < len(vs):
        n, lows = len(vs), _low(len(vs))
        qi = next(i for i, v in enumerate(vs) if v in vs[:i])
        pi = vs.index(vs[qi])
        p, q = n - 1 - pi, n - 1 - qi
        m &= ~(lows[p] ^ lows[q])
        if pi:
            m = swap_bits(m, (1 << (n - 1)) - (1 << p), swap_mask(n, n - 1, p))
            vs[0], vs[pi] = vs[pi], vs[0]
        m = (m & lows[n - 1]) | (m >> (1 << (n - 1)))
        del vs[0]
    n = len(vs)
    for i in range(n - 1):
        if vs[i] != i:  # after the merges the ranks are 0..n-1
            j = vs.index(i, i)
            p, q = n - 1 - i, n - 1 - j
            m = swap_bits(m, (1 << p) - (1 << q), swap_mask(n, p, q))
            vs[i], vs[j] = i, vs[i]
    return m


def translate(m: int, n: int, v: int) -> int:
    """{c ^ v : c in m}, for a set m of n-bit codes: one swap of halves per
    set bit of v."""
    for j, low in enumerate(_low(n)):
        if v >> j & 1:
            m = ((m & low) << (1 << j)) | ((m >> (1 << j)) & low)
    return m


def _above(m: int, n: int) -> int:
    """The codes above some member of m."""
    for j, low in enumerate(_low(n)):
        m |= (m & low) << (1 << j)
    return m


def _join_closed(m: int, n: int) -> bool:
    joins = _above(m, n)  # the codes that are the join of the members below them
    for low in _low(n):
        joins &= _above(m & ~low, n) | low
    return not joins & ~m


def _affine(m: int, n: int) -> bool:
    m = translate(m, n, (m & -m).bit_length() - 1)  # a linear subspace if m is affine
    for j in reversed(range(n)):
        lower, upper = m & ((1 << (1 << j)) - 1), m >> (1 << j)
        if upper and upper != translate(lower, j, (upper & -upper).bit_length() - 1):
            return False
        m = lower
    return True


def _zero(m: int, n: int) -> bool:
    return bool(m & 1)


def _self_dual(m: int, n: int) -> bool:
    return translate(m, n, (1 << n) - 1) == m


def _binary_join(m: int, n: int) -> bool:
    full = (1 << (1 << n)) - 1
    sides = [side for low in _low(n) for side in (low, full ^ low)]
    covered = m  # the members and the codes showing a pattern no member shows
    for a, b in itertools.combinations_with_replacement(sides, 2):
        if not m & a & b:
            covered |= a & b
    return covered == full


def _s0_closed(m: int, n: int, reproducing: bool = False, monotone: bool = False) -> bool:
    """m holds its images under S0, under S02 with `reproducing`, and under
    S00 with both."""
    images = _above(m, n)
    for low_i in _low(n):
        if reproducing and not m & ~low_i:
            images &= low_i
        for low_j in _low(n):
            # column i lies within column j (and, unless monotone, equals it)
            if not m & ~low_i & low_j and (monotone or not m & low_i & ~low_j):
                images &= low_i | ~low_j
    return not images & ~m


def _dual(test: Callable[[int, int], bool]) -> Callable[[int, int], bool]:
    return lambda m, n: test(translate(m, n, (1 << n) - 1), n)


_S02 = functools.partial(_s0_closed, reproducing=True)
_S00 = functools.partial(_s0_closed, reproducing=True, monotone=True)
_GENERATOR_TESTS: dict[tuple[int, int], tuple[Callable[[int, int], bool], ...]] = {
    (f.arity, f.table): tuple(parts)  # the generator holds iff all its parts do
    for f, *parts in (
        (CONST0, _zero), (CONST1, _dual(_zero)), (NOT1, _self_dual), (XOR3, _affine),
        (XOR2F, _zero, _affine), (XNOR2F, _dual(_zero), _affine), (XNOR3, _self_dual, _affine),
        (MAJ3, _binary_join), (OR2F, _join_closed), (AND2, _dual(_join_closed)),
        (IMPL2F, _s0_closed), (OR_ANDNOT3, _S02), (OR_AND3, _S00),
        (ANDNOT2, _dual(_s0_closed)), (AND_ORNOT3, _dual(_S02)), (AND_OR3, _dual(_S00)),
    )
}


@functools.lru_cache(maxsize=200_000)
def _is_poly_cached(f_arity: int, f_table: int, r_arity: int, r_mask: int) -> bool:
    if (f_arity, f_table) not in _GENERATOR_TESTS:
        raise ValueError(f"fn{f_arity}:{f_table:x} is none of the 16 clone generators")
    return all(part(r_mask, r_arity) for part in _GENERATOR_TESTS[f_arity, f_table])


def is_polymorphism(f: BoolFunction, r: Relation) -> bool:
    """True iff applying f coordinatewise to tuples of r stays inside r.
    f must be one of the 16 clone generators; any other raises ValueError."""
    return _is_poly_cached(f.arity, f.table, r.arity, r.mask)


def _uncovered_maxima(covered: int, n: int) -> int:
    """The codes outside `covered` whose every one-bit-up neighbour is in it."""
    maxima = (1 << (1 << n)) - 1 & ~covered
    for j, low in enumerate(_low(n)):
        maxima &= ~low | covered >> (1 << j)
    return maxima


def projection_width(r: Relation) -> int:
    """Least k >= 2 such that r is the join of its k-ary projections, for r
    preserved by x | (y & z), or dually by x & (y | z): the width of its
    widest prime positive clause.  A code stands for the clause of its 0
    bits, which is an implicate iff the code lies above no member, and
    prime iff setting any one of those bits gives a code above a member."""
    n, m = r.arity, r.mask
    if not is_polymorphism(OR_AND3, r):
        if not is_polymorphism(AND_OR3, r):
            raise InternalConsistencyError(f"neither x | (y & z) nor x & (y | z) preserves {r}")
        m = translate(m, n, (1 << n) - 1)
    primes = _uncovered_maxima(_above(m, n), n)
    weights = _weight_sets(n)
    lightest = next((w for w in range(n + 1) if primes & weights[w]), n)
    return max(2, n - lightest)  # the lightest prime code has the most 0 bits


def dualize(r: Relation) -> Relation:
    """Complement every tuple; an involution."""
    return Relation(r.arity, translate(r.mask, r.arity, (1 << r.arity) - 1))


# --- clause shapes and CNF decomposition -------------------------------------

@dataclass(frozen=True)
class Clause:
    """One clause over 0-based coordinate indices.

    Disjunctive clauses carry positive/negative index tuples; parity
    clauses carry their support in `positives` plus the target bit.
    """

    positives: tuple[int, ...]
    negatives: tuple[int, ...] = ()
    parity_bit: int | None = None

    def __post_init__(self) -> None:
        if self.parity_bit is not None and (self.negatives or self.parity_bit not in (0, 1)):
            raise ParseError("parity clauses carry a bit and unsigned support only")

    def holds(self, bits: Sequence[int]) -> bool:
        if self.parity_bit is not None:
            return sum(bits[i] for i in self.positives) % 2 == self.parity_bit
        return any(bits[i] for i in self.positives) or any(not bits[i] for i in self.negatives)

    def literals(self) -> frozenset[int]:
        """Signed 1-based literal set (disjunctive clauses only)."""
        return frozenset(i + 1 for i in self.positives) | frozenset(-(i + 1) for i in self.negatives)


# The clone generators that must preserve a relation for it to admit each
# decomposition shape; the two hitting-set shapes also need projection
# width at most k.
_SHAPE_CLONES: dict[str, tuple[BoolFunction, ...]] = {
    "horn": (AND2,),
    "dual_horn": (OR2F,),
    "bijunctive": (MAJ3,),
    "monotone": (AND2, OR2F),
    "parity": (XOR3,),
    "ihsb_pos": (OR_AND3,),
    "ihsb_neg": (AND_OR3,),
}


def _parity_decompose(r: Relation) -> tuple[Clause, ...]:
    # Check-space of the tuple set: all (a | c) with a.t = c for every t in r,
    # reduced to RREF so 2affine relations yield unary/binary equations only.
    n = r.arity
    rows = [(c << 1) | 1 for c in r.tuples()]  # [t | 1], the constant in the last column
    basis = gf2.nullspace(rows, n + 1)
    basis = gf2.rref_basis(basis, n + 1)
    clauses = []
    for v in basis:
        support = tuple(i for i in range(n) if (v >> (n - i)) & 1)
        rhs = v & 1
        if not support:
            # 0 = 1 cannot arise from a nonempty relation
            raise InternalConsistencyError("contradictory parity row from nonempty relation")
        clauses.append(Clause(positives=support, parity_bit=rhs))
    return tuple(clauses)


@functools.lru_cache(maxsize=None)
def _decompose_cached(arity: int, mask: int, shape: str, k: int | None) -> tuple[Clause, ...]:
    r = Relation(arity, mask)
    admits = all(is_polymorphism(f, r) for f in _SHAPE_CLONES[shape])
    if not admits or (k is not None and projection_width(r) > k):
        raise ShapeUnavailable(f"{r} admits no {shape}{'' if k is None else f'_{k}'} decomposition")
    clauses = _parity_decompose(r) if shape == "parity" else _prime_implicates(arity, mask)
    _verify_decomposition(r, clauses)
    return clauses


@functools.lru_cache(maxsize=1024)
def _prime_implicates(arity: int, mask: int) -> tuple[Clause, ...]:
    """The prime implicates of the relation that have at most one negative
    or at most one positive literal, shortest first, then by signed
    literals.

    A code stands for the positive clause of its 0 bits: an implicate iff
    no member lies below it, prime iff it is an uncovered maximum of the
    codes above members.  With bit q set it also stands for that clause
    plus -q: an implicate iff no member with q set lies below it, prime iff
    it is a maximum for those members and the positive clause alone is no
    implicate.  On the complemented members the same codes give the
    clauses with at most one positive literal, signs flipped."""
    n, clauses = arity, set()
    for m, flip in ((mask, False), (translate(mask, n, (1 << n) - 1), True)):
        covered = _above(m, n)
        found = [((), _uncovered_maxima(covered, n))]
        for j, low in enumerate(_low(n)):
            found.append(((n - 1 - j,), ~low & covered & _uncovered_maxima(_above(m & ~low, n), n)))
        for neg, codes in found:
            for c in np.flatnonzero(membership_table(n, codes)).tolist():
                pos = tuple(i for i in range(n) if not c >> (n - 1 - i) & 1)
                clauses.add(Clause(neg, pos) if flip else Clause(pos, neg))
    return tuple(sorted(clauses, key=lambda cl: (len(cl.literals()), sorted(cl.literals()))))


def _verify_decomposition(r: Relation, clauses: tuple[Clause, ...]) -> None:
    """Raise unless the clauses' models are exactly r's, as whole-set
    operations on the code sets of `_low`: a disjunctive clause removes
    the subcube that falsifies it (its positives at 0, its negatives at 1),
    a parity clause keeps the codes where the XOR of its columns is its
    bit."""
    full = (1 << (1 << r.arity)) - 1
    zeros = _low(r.arity)[::-1]  # zeros[i]: the codes with coordinate i at 0
    ones = [full ^ z for z in zeros]
    models = full
    for cl in clauses:
        if cl.parity_bit is None:
            falsified = full
            for i in cl.positives:
                falsified &= zeros[i]
            for i in cl.negatives:
                falsified &= ones[i]
            models ^= models & falsified
        else:
            odd = 0
            for i in cl.positives:
                odd ^= ones[i]
            models &= odd if cl.parity_bit else full ^ odd
    if models != r.mask:
        raise InternalConsistencyError(f"decomposition of {r} does not reproduce its model set")


def cnf_decompose(r: Relation, shape: str, k: int | None = None) -> tuple[Clause, ...]:
    """Clause list over coordinates whose conjunction equals r exactly.

    Shapes: horn, dual_horn, bijunctive, monotone, parity, ihsb_pos,
    ihsb_neg (the latter two take the hitting-set width k >= 2).
    Raises ShapeUnavailable when the shape's clone generators do not
    preserve r.
    """
    if shape not in _SHAPE_CLONES:
        raise ParseError(f"unknown decomposition shape {shape!r}")
    if shape in ("ihsb_pos", "ihsb_neg"):
        if k is None or k < 2:
            raise ParseError("ihsb shapes need a width k >= 2")
    else:
        k = None
    return _decompose_cached(r.arity, r.mask, shape, k)


# --- languages ----------------------------------------------------------------


@dataclass(frozen=True)
class Language:
    """A named finite set of relations (the constraint language)."""

    relations: tuple[tuple[str, Relation], ...]

    @classmethod
    def of(cls, **named: Relation) -> "Language":
        return cls(tuple(named.items()))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Relation]]) -> "Language":
        seen: dict[str, Relation] = {}
        for name, rel in pairs:
            if name in seen and seen[name] != rel:
                raise ParseError(f"relation {name!r} declared twice with different tuples")
            seen[name] = rel
        return cls(tuple(seen.items()))

    @functools.cached_property
    def index(self) -> dict[str, Relation]:
        """Declared relations by name; the first declaration of a name wins."""
        index: dict[str, Relation] = {}
        for name, rel in self.relations:
            index.setdefault(name, rel)
        return index

    def get(self, name: str) -> Relation:
        rel = self.index.get(name) or BUILTIN_RELATIONS.get(name)
        if rel is None:
            raise ParseError(f"unknown relation {name!r}")
        return rel

    def declared(self, name: str) -> Relation | None:
        return self.index.get(name)

    def has(self, name: str) -> bool:
        return name in self.index or name in BUILTIN_RELATIONS

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    def members(self) -> tuple[Relation, ...]:
        return tuple(r for _, r in self.relations)

    @property
    def max_arity(self) -> int:
        return max((r.arity for r in self.members()), default=1)

    def dualized(self) -> "Language":
        return Language(tuple((n, dualize(r)) for n, r in self.relations))

    def __iter__(self) -> Iterator[tuple[str, Relation]]:
        return iter(self.relations)


_REL_LINE = re.compile(r"^rel\s+(\S+)\s+(\d+)\s+(\S+)$")


def parse_language(text: str) -> Language:
    """Parse the language file format: lines `rel NAME ARITY t1,t2,...`."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pairs.append(parse_relation_line(line, lineno))
    return Language.from_pairs(pairs)


def parse_relation_line(line: str, lineno: int) -> tuple[str, Relation]:
    """One `rel NAME ARITY t1,t2,...` declaration (comments stripped)."""
    m = _REL_LINE.match(line)
    if not m:
        raise ParseError(f"line {lineno}: expected 'rel NAME ARITY t1,t2,...'")
    name, arity_s, tuples_s = m.groups()
    try:
        rel = Relation.from_tuples(int(arity_s), tuples_s.split(","))
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    return name, rel


@functools.lru_cache(maxsize=256)
def _parse_language_text(text: str) -> Language:
    return parse_language(text)


def load_language(path: str | Path) -> Language:
    """The language in a file.  The file is read on every call, so an edited
    file is never served stale; parsing is memoized on the text.  It is
    read by raw `os.read` calls until end of file, which skips the
    buffered file object that `open` would build."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return _parse_language_text(b"".join(chunks).decode("utf-8"))


def builtin_language(names: Iterable[str]) -> Language:
    return Language.from_pairs((n, BUILTIN_RELATIONS[n]) for n in names)
