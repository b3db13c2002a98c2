"""Linear algebra over GF(2) with bit-packed rows, every elimination one
sparse echelon (`_rref`) on a dict from pivot bit to row.

A vector of length l is an int whose coordinate 0 is the leading bit
(bit l-1), the MSB-first order of assignment and tuple codes, so numeric
order on vectors is lexicographic order on their bitstrings.

Desk-scale exact solvers for minimum weight and nearest codeword live
here, and both refuse dimensions above ENUM_CAP_BITS (24).  Both run one
Brouwer-Zimmermann search (`_bz_search`): the row combinations of
several information sets, tried by size, until the lower bound that the
information sets give together passes the best answer found.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import TYPE_CHECKING, Sequence

from .errors import TooLarge

if TYPE_CHECKING:
    import numpy as np

ENUM_CAP_BITS = 24


def _rref(rows: Sequence[int], prefer: int = 0) -> tuple[list[int], list[int]]:
    """Reduced row echelon form: (reduced rows, pivot bits) in descending
    pivot order.  A row pivots on its leading bit among the columns of
    `prefer`, or on its leading bit if it has none there.

    A new row is reduced at its leading bit while that is a pivot, and
    joins if any of it is left; then each row, lowest pivot first, is
    cleared of the lower pivots it holds, whose rows are reduced already.
    """
    if prefer:  # move the columns of `prefer` above the others, and back
        width = reduce(or_, rows, 0).bit_length()
        keys, pivots = _rref([(row & prefer) << width | row & ~prefer for row in rows])
        pairs = [(p % width, key >> width | key % (1 << width)) for key, p in zip(keys, pivots)]
        pairs.sort(reverse=True)
        return [row for _, row in pairs], [p for p, _ in pairs]
    by_pivot: dict[int, int] = {}
    for row in rows:
        while row and (p := row.bit_length() - 1) in by_pivot:
            row ^= by_pivot[p]
        if row:
            by_pivot[p] = row
    pivots = sorted(by_pivot)
    below = 0  # the pivots of the rows reduced so far
    for p in pivots:
        hits = by_pivot[p] & below
        while hits:
            q = hits.bit_length() - 1
            by_pivot[p] ^= by_pivot[q]
            hits ^= 1 << q
        below |= 1 << p
    return [by_pivot[p] for p in reversed(pivots)], pivots[::-1]


def rref_basis(vectors: Sequence[int], cols: int) -> list[int]:
    """Canonical RREF basis of the span of the given vectors."""
    return _rref(vectors)[0]


def rank(vectors: Sequence[int], cols: int) -> int:
    return len(rref_basis(vectors, cols))


def nullspace(rows: Sequence[int], cols: int) -> list[int]:
    """Basis of {x : row·x = 0 for all rows}, one vector per free column,
    in coordinate order."""
    return _free_basis(*_rref(rows), cols)


def _free_basis(reduced: list[int], pivots: list[int], cols: int) -> list[int]:
    """`nullspace` of rows already in reduced row echelon form: each free
    column plus the pivots of the rows that hold it."""
    links: dict[int, int] = {}
    for r, p in zip(reduced, pivots):
        rest = r ^ (1 << p)
        while rest:
            free = rest.bit_length() - 1
            links[free] = links.get(free, 0) | 1 << p
            rest ^= 1 << free
    pivot_set = set(pivots)
    return [links.get(free, 0) | 1 << free for free in reversed(range(cols)) if free not in pivot_set]


def solve_affine(equations: Sequence[tuple[int, int]], cols: int) -> tuple[int, list[int]] | None:
    """Particular solution (free columns zero) and nullspace basis of the
    (row, bit) equations row·x = bit; None iff they are inconsistent.

    The rhs is a new lowest column, free in a consistent system: its
    nullspace vector is the particular solution, the others the basis.
    """
    reduced, pivots = _rref([(row << 1) | (b & 1) for row, b in equations])
    if pivots and pivots[-1] == 0:
        return None  # a row 0 = 1
    *basis, particular = _free_basis(reduced, pivots, cols + 1)
    return particular >> 1, [v >> 1 for v in basis]


@cache
def _pop16() -> np.ndarray:
    """The bit counts of the 16-bit values, built on the first `popcount`
    call: numpy loads then, so no caller without arrays pays its import."""
    import numpy as np

    return np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8)).reshape(-1, 16).sum(1, np.uint8)


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element bit count of an integer array whose values fit in 32 bits."""
    pop16 = _pop16()
    return pop16[arr & 0xFFFF] + pop16[arr >> 16]


def _bz_search(rows: list[int], tail: int, target: int, empty: bool) -> tuple[int, int]:
    """The least (popcount of x >> tail, low `tail` bits of x) over
    x = target ^ (XOR of r >= 1 rows), and r = 0 too if `empty`.

    Brouwer-Zimmermann enumeration (Grassl, "Searching for linear codes
    with large minimum distance", 2006).  The rows come in reduced row
    echelon form, each pivoting on its leading bit above `tail`: the
    first form.  Each later form is the same rows eliminated again onto
    pivots among the columns no earlier form pivots on, its new columns;
    its deficit is the number of its pivots outside them.  A form's base
    is the target plus the rows whose pivot the target holds, so
    base ^ (r rows) holds exactly r of the form's pivots, and round r
    tries those combinations in every form.  An x no form reached in the
    rounds below r holds at least r - deficit of each form's new columns,
    and these are disjoint, so the search stops once the sum of those
    counts passes the best score: strictly, so every tie is seen.

    Later forms join between rounds the first form's bound alone does
    not stop, once the next round costs as many combinations as building
    a form (about k**2 row operations), so answers the first rounds settle
    build none; and only while they are projected to save more than they
    cost at the best score so far (`_pays`).  The first form goes on alone
    once that is projected to be cheaper than going on with them all.
    """
    k = len(rows)
    start = 0 if empty else 1
    base = _base(rows, [row.bit_length() - 1 for row in rows], target) if target else 0
    if empty:
        score, best = (base >> tail).bit_count(), base
    else:  # start above every score: a combination holds no bit outside the union
        score, best = (reduce(or_, rows, 0) >> tail).bit_count() + 1, 0
    forms, deficits, free = [(rows, base)], [0], -1
    for r in range(1, k + 1):
        if r > score or len(forms) > 1 and sum(r - d for d in deficits if d < r) > score:
            break
        for form, form_base in forms:
            score, best = _round(form, form_base, r, tail, score, best)
        if r >= score or comb(k, r + 1) < k * k or not free:
            continue  # the next round stops, or is too cheap to need a form
        if free < 0:  # the columns no form pivots on yet
            free = reduce(or_, rows, 0) >> tail << tail
            free &= ~sum(1 << (row.bit_length() - 1) for row in rows)
        tried = sum(comb(k, j) for j in range(start, r + 1))  # by each form
        if len(forms) > 1 and _finish(k, r + 1, score, [0]) < _finish(k, r + 1, score, deficits):
            forms, deficits, free = forms[:1], [0], 0
        while free and _pays(k, r + 1, score, tried, deficits, free):
            form, pivots = _rref(rows, free)
            new = sum(1 << p for p in pivots if free >> p & 1)
            free &= ~new
            form_base = _base(form, pivots, target)
            for j in range(start, r + 1):
                score, best = _round(form, form_base, j, tail, score, best)
            forms.append((form, form_base))
            deficits.append(k - new.bit_count())
    return score, best & ((1 << tail) - 1)


def _base(rows: list[int], pivots: list[int], target: int) -> int:
    """The target plus the rows whose pivot it holds, so it holds no
    pivot: its codeword agrees with the target on every pivot."""
    for row, p in zip(rows, pivots):
        if (target >> p) & 1:
            target ^= row
    return target


def _pays(k: int, r: int, score: int, tried: int, deficits: list[int], free: int) -> bool:
    """Whether later forms joining before round r are projected to cost
    fewer combinations than they save, at `score`: each is priced at its
    elimination (about k**2 row operations) plus catching up on the
    `tried` combinations, and taken to pivot on as many `free` columns as
    it can."""
    now = _finish(k, r, score, deficits)
    price, later, left = 0, list(deficits), free.bit_count()
    while left:
        price += k * k + tried
        later.append(k - min(k, left))
        left -= min(k, left)
        if price >= now:
            return False
        if price + _finish(k, r, score, later) < now:
            return True
    return False


def _finish(k: int, r: int, score: int, deficits: list[int]) -> int:
    """The combinations that forms of these deficits, caught up to round
    r, try before their bound passes `score`."""
    total = 0
    for j in range(r, k + 1):
        if sum(j - d for d in deficits if d < j) > score:
            break
        total += len(deficits) * comb(k, j)
    return total


def _round(rows: list[int], base: int, r: int, tail: int, score: int, best: int) -> tuple[int, int]:
    """`_bz_search`'s (score, best) after trying base ^ (XOR of r rows)."""
    low = (1 << tail) - 1
    if r < 2:
        for row in rows if r else (0,):
            x = base ^ row
            w = (x >> tail).bit_count()
            if w <= score and (w < score or x & low < best & low):
                score, best = w, x
        return score, best
    # each prefix of r - 2 rows is extended by every later pair of rows
    pairs = [(row, rows[j + 1 :]) for j, row in enumerate(rows)]
    for prefix in combinations(range(len(rows) - 2), r - 2):
        p = base
        for i in prefix:
            p ^= rows[i]
        for row, later in pairs[prefix[-1] + 1 if prefix else 0 :]:
            q = p ^ row
            for row in later:
                x = q ^ row
                w = (x >> tail).bit_count()
                if w <= score and (w < score or x & low < best & low):
                    score, best = w, x
    return score, best


def min_weight_nonzero(basis: Sequence[int], cols: int) -> tuple[int, int] | None:
    """Minimum-weight nonzero span member; None for the zero-dimensional space.

    Ties break toward the smallest vector, i.e. the smallest bitstring.
    Each RREF row is tagged below with itself, so the search's tie-break
    reads the vector (`_bz_search`).
    """
    dim = len(basis)
    if dim > ENUM_CAP_BITS:
        raise TooLarge(f"nullspace dimension {dim} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
    reduced, _ = _rref(basis)
    if not reduced:
        return None
    tail = reduced[0].bit_length()  # the first row holds the highest pivot
    return _bz_search([(v << tail) | v for v in reduced], tail, 0, empty=False)


def nearest_codeword(generator_rows: Sequence[int], cols: int, target: int) -> tuple[int, int]:
    """Exact closest-codeword search over the message space.

    Returns (distance, message), where bit i of the message selects row i;
    ties break toward the lexicographically smallest message (MSB-first
    over message bits m[0..k-1]).  Each row is tagged below with the
    message that builds it, and the search (`_bz_search`) runs on the RREF
    rows whose pivot lies in the codeword.  The other rows are bare tags,
    the messages of the zero codeword; the RREF clears their pivots from
    every searched row, so each combination's tag is the smallest message
    of its codeword.
    """
    k = len(generator_rows)
    if k > ENUM_CAP_BITS:
        raise TooLarge(f"message space 2**{k} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
    # the tag is the reversed message, whose bit k-1-j selects row j, so
    # numeric order on it is the tie-break order
    reduced, pivots = _rref([(row << k) | (1 << (k - 1 - j)) for j, row in enumerate(generator_rows)])
    searched = [r for r, p in zip(reduced, pivots) if p >= k]  # not the bare tags
    distance, reversed_message = _bz_search(searched, k, target << k, empty=True)
    return distance, int(f"{reversed_message:0{k}b}"[::-1], 2)
