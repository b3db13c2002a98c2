"""Boolean relations, their closure properties, and clause decompositions.

A relation of arity n is stored as a membership table over the 2**n tuple
codes, where the integer code of a tuple has the first coordinate as its
most significant bit ("0110" -> 6).  The same MSB-first convention is used
for truth tables of Boolean functions, for assignment bitstrings and for
GF(2) vectors, so lexicographic order on bitstrings is numeric order on
codes everywhere.

Whether a k-ary function f preserves a relation is decided bit-sliced: a
tuple code is a word of coordinates, so fixing f's first k-1 arguments to
member tuples leaves two words, the coordinates where f(prefix, 0) = 1 and
those where f(prefix, 1) = 1, and the image of each last member is a few
whole-word operations and one membership lookup.  Every clone base the
classifier uses is at most ternary, so this costs |r|**(k-1) word
pairs rather than |r|**k tuples times the arity.  Threshold functions on
or/nand-type relations and weight-determined relations take shortcuts
first.

Closure questions have one answer, the polymorphism test: a relation
admits a clause shape iff the shape's clone generators preserve it
(`_SHAPE_CLONES`: horn by and, dual_horn by or, bijunctive by majority,
monotone by and and or, parity by xor3, ihsb_pos by x | (y & z) and
ihsb_neg by x & (y | z), the last two with projection width at most k).
A disjunctive decomposition is the shape's prime implicates, found by one
subcube transform.  Over the 3**n partial assignments (each coordinate 0,
1 or free) a table marks those some member matches: the free slice of each
axis is the OR of its 0- and 1-slices.  A clause is an implicate iff its
falsifying partial assignment is unmarked, and prime iff freeing any one
of its coordinates gives a marked one.  Every shape's clause set is closed
under taking subclauses, so its primes are its minimal implicates.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
        return _members(self.arity, self.mask)[0]

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
        shift = self.arity - 1 - coord
        mask = 0
        for c in self.tuples():
            if (c >> shift) & 1 != value:
                continue
            high = c >> (shift + 1)
            low = c & ((1 << shift) - 1)
            mask |= 1 << ((high << shift) | low)
        if mask == 0:
            return None
        return Relation(self.arity - 1, mask)

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


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=256)
def _members(arity: int, mask: int) -> tuple[tuple[int, ...], bytes, frozenset[int] | None]:
    """A relation's member codes in ascending order, its membership as one
    byte per code, and its weight set if membership depends on weight only.
    Kept for few relations: a 16-ary one has up to 65,536 members."""
    bits = bin(mask)[:1:-1].ljust(1 << arity, "0")
    rows = tuple(c for c, b in enumerate(bits) if b == "1")
    counts = [0] * (arity + 1)
    for c in rows:
        counts[c.bit_count()] += 1
    wset = None
    if all(m in (0, math.comb(arity, w)) for w, m in enumerate(counts)):
        wset = frozenset(w for w, m in enumerate(counts) if m)
    return rows, bits.encode().translate(_BIT_BYTES), wset


@functools.lru_cache(maxsize=256)
def _function_facts(
    arity: int, table: int
) -> tuple[bool, int | None, tuple[int, ...], tuple[int, ...]]:
    """Whether f is symmetric; t with f = [weight >= t] and 1 <= t <= arity,
    else None; and f's minterms split by the last argument: the prefix codes
    p with f(p, 0) = 1, then those with f(p, 1) = 1."""
    minterms = [c for c in range(1 << arity) if (table >> c) & 1]
    weights = {c.bit_count() for c in minterms}
    symmetric = all(((table >> c) & 1) == (c.bit_count() in weights) for c in range(1 << arity))
    threshold = None
    if symmetric and weights and sorted(weights) == list(range(min(weights), arity + 1)):
        threshold = min(weights) or None
    lo = tuple(m >> 1 for m in minterms if not m & 1)
    hi = tuple(m >> 1 for m in minterms if m & 1)
    return symmetric, threshold, lo, hi


# Bit-sliced kernel: a tuple code is a word whose bits are the coordinates.
# With every argument but the last fixed to a prefix of member tuples, the
# prefix splits the coordinates into cells by their bit pattern, and f's
# minterms give two words: `lo`, the coordinates where f(prefix, 0) = 1, and
# `hi`, those where f(prefix, 1) = 1.  The image of a last tuple c is then
# (c & hi) | (lo & ~c), one lookup per member c; prefixes that give a (lo,
# hi) pair already tested are skipped.  A symmetric f needs only the
# multisets of prefix tuples.  The threshold and weight-set shortcuts come
# first, because on wide or/nand-type and weight-determined relations they
# avoid the |r|**(k-1) prefixes.
@functools.lru_cache(maxsize=200_000)
def _is_poly_cached(f_arity: int, f_table: int, r_arity: int, r_mask: int) -> bool:
    n, k = r_arity, f_arity
    rows, member, wset = _members(n, r_mask)
    symmetric, t, lo_prefixes, hi_prefixes = _function_facts(k, f_table)
    full = (1 << n) - 1

    # threshold functions on or/nand-type relations admit a packing argument:
    # a counterexample spreads one violating entry per row across the columns
    if t is not None and len(rows) == full:
        if not member[0]:  # [weight >= 1]
            return k > n * (t - 1)
        if not member[full]:  # [weight <= n-1]
            return k > n * (k - t)

    # weight-determined relations: counterexamples are column multisets.  A
    # column packs its k row bits and its image bit into 5-bit fields, so the
    # sum of a multiset holds its row weights and its image's weight.
    if wset is not None and math.comb((1 << k) + n - 1, n) <= min(500_000, len(rows) ** k):
        cols = [
            sum(((p >> (k - 1 - i)) & 1) << (5 * i) for i in range(k))
            | ((f_table >> p) & 1) << (5 * k)
            for p in range(1 << k)
        ]
        bad = {o << (5 * k) for o in range(n + 1) if o not in wset}
        for i in range(k):
            bad = {x | w << (5 * i) for x in bad for w in wset}
        return not bad or bad.isdisjoint(map(sum, itertools.combinations_with_replacement(cols, n)))

    if symmetric:
        prefixes: Iterable[tuple[int, ...]] = itertools.combinations_with_replacement(rows, k - 1)
    else:
        prefixes = itertools.product(rows, repeat=k - 1)
    seen = set()
    for prefix in prefixes:
        cells = [full]
        for a in prefix:
            cells = [x for cell in cells for x in (cell & ~a, cell & a)]
        lo = hi = 0
        for p in lo_prefixes:
            lo |= cells[p]
        for p in hi_prefixes:
            hi |= cells[p]
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        for c in rows:
            if not member[(c & hi) | (lo & ~c)]:
                return False
    return True


def is_polymorphism(f: BoolFunction, r: Relation) -> bool:
    """True iff applying f coordinatewise to tuples of r stays inside r."""
    return _is_poly_cached(f.arity, f.table, r.arity, r.mask)


def projection_width(r: Relation) -> int:
    """Least k >= 2 such that r is the join of its k-ary projections.  A
    coordinate set is a bit mask s, and `t & s` projects the tuple code t.
    The width is usually the arity, so k = arity - 1 is tried first."""
    n = r.arity
    members, member, _ = _members(n, r.mask)

    def joins(k: int) -> bool:
        left = [t for t, b in enumerate(member) if not b]
        for coords in itertools.combinations(range(n), k):
            s = sum(1 << i for i in coords)
            seen = {t & s for t in members}
            left = [t for t in left if t & s in seen]
        return not left

    if n > 2 and not joins(n - 1):
        return n
    return next((k for k in range(2, n) if joins(k)), 2)


def dualize(r: Relation) -> Relation:
    """Complement every tuple; an involution."""
    full = (1 << r.arity) - 1
    mask = 0
    for c in r.tuples():
        mask |= 1 << (c ^ full)
    return Relation(r.arity, mask)


# --- clause shapes and CNF decomposition -------------------------------------

@dataclass(frozen=True)
class Clause:
    """One clause over 0-based coordinate indices.

    Disjunctive clauses carry positive/negative index tuples; parity
    clauses carry their support in `positives` plus the target bit.  Which
    disjunctive clauses a shape admits is decided by `_clause_allowed`.
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


def _shape_admits(r: Relation, shape: str, k: int | None) -> bool:
    return all(is_polymorphism(f, r) for f in _SHAPE_CLONES[shape]) and (
        k is None or projection_width(r) <= k
    )


def _clause_allowed(shape: str, k: int | None, pos: tuple[int, ...], neg: tuple[int, ...]) -> bool:
    np_, nn = len(pos), len(neg)
    if np_ + nn == 1:
        return True
    if shape == "horn":
        return np_ <= 1
    if shape == "dual_horn":
        return nn <= 1
    if shape == "bijunctive":
        return np_ + nn <= 2
    if shape == "monotone":
        return np_ <= 1 and nn <= 1
    if shape == "ihsb_pos":
        return (nn == 0 and 2 <= np_ <= k) or (np_ == 1 and nn == 1)
    return (np_ == 0 and 2 <= nn <= k) or (np_ == 1 and nn == 1)  # ihsb_neg


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
    if not _shape_admits(r, shape, k):
        raise ShapeUnavailable(f"{r} admits no {shape}{'' if k is None else f'_{k}'} decomposition")
    clauses = _parity_decompose(r) if shape == "parity" else _minimal_implicates(r, shape, k)
    _verify_decomposition(r, clauses)
    return clauses


def _minimal_implicates(r: Relation, shape: str, k: int | None) -> tuple[Clause, ...]:
    """The shape's prime implicates of r, shortest first, then by signed
    literals.  `hit[e]` over e in {0, 1, 2}**n (2 = free) is whether some
    member agrees with e on its fixed coordinates; a clause is falsified
    exactly by its positives at 0 and its negatives at 1."""
    n = r.arity
    hit = np.empty((3,) * n, dtype=bool)
    hit[(slice(0, 2),) * n] = np.frombuffer(_members(n, r.mask)[1], dtype=bool).reshape((2,) * n)
    for axis in range(n):  # the later axes are not freed yet
        v = np.moveaxis(hit[(slice(None),) * (axis + 1) + (slice(0, 2),) * (n - 1 - axis)], axis, 0)
        np.logical_or(v[:1], v[1:2], out=v[2:])
    prime = ~hit
    for axis in range(n):  # freeing a fixed coordinate must give a hit
        p, free = np.moveaxis(prime, axis, 0), np.moveaxis(hit, axis, 0)[2:]
        p[:1] &= free  # one slice at a time keeps numpy's inner loop long
        p[1:2] &= free
    clauses = []
    for digits in zip(*np.unravel_index(np.flatnonzero(prime), (3,) * n)):
        pos = tuple(i for i, d in enumerate(digits) if d == 0)
        neg = tuple(i for i, d in enumerate(digits) if d == 1)
        if _clause_allowed(shape, k, pos, neg):
            clauses.append(Clause(pos, neg))
    return tuple(sorted(clauses, key=lambda cl: (len(cl.literals()), sorted(cl.literals()))))


def _verify_decomposition(r: Relation, clauses: tuple[Clause, ...]) -> None:
    n = r.arity
    codes = np.arange(1 << n)
    models = np.ones(1 << n, dtype=bool)
    for cl in clauses:
        support = sum(1 << (n - 1 - i) for i in cl.positives + cl.negatives)
        if cl.parity_bit is None:  # falsified by its positives at 0, its negatives at 1
            models &= (codes & support) != sum(1 << (n - 1 - i) for i in cl.negatives)
        else:
            models &= gf2.popcount(codes & support) % 2 == cl.parity_bit
    if not np.array_equal(models, np.frombuffer(_members(n, r.mask)[1], dtype=bool)):
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
    file is never served stale; parsing is memoized on the text."""
    with open(path, "rb") as fh:
        return _parse_language_text(fh.read().decode("utf-8"))


def builtin_language(names: Iterable[str]) -> Language:
    return Language.from_pairs((n, BUILTIN_RELATIONS[n]) for n in names)
