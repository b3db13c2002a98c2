"""A general polymorphism test for any Boolean function, and the coordinate
subset scan for the projection width: the references for the library's
generator tests and prime-clause width.

Whether a k-ary function f preserves a relation is decided bit-sliced: a
tuple code is a word of coordinates, so fixing f's first k-1 arguments to
member tuples leaves two words, the coordinates where f(prefix, 0) = 1 and
those where f(prefix, 1) = 1, and the image of each last member is a few
whole-word operations and one membership lookup.  This costs |r|**(k-1)
word pairs rather than |r|**k tuples times the arity.  Threshold functions
on or/nand-type relations and weight-determined relations take shortcuts
first.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable

from minsol.relations import BoolFunction, Relation

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=256)
def _members(arity: int, mask: int) -> tuple[tuple[int, ...], bytes, frozenset[int] | None]:
    """A relation's member codes in ascending order, its membership as one
    byte per code, and its weight set if membership depends on weight only."""
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
