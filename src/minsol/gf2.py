"""Linear algebra over GF(2) with bit-packed rows.

A vector of length l is an int whose coordinate 0 is the leading bit
(bit l-1), the MSB-first order of assignment and tuple codes, so numeric
order on vectors is lexicographic order on their bitstrings.

Desk-scale exact solvers for minimum weight and nearest codeword live
here, and both refuse dimensions above ENUM_CAP_BITS (24).  Each reduces
the rows to RREF, where every row owns its pivot bit, so a combination of
r rows weighs at least r (for the nearest codeword: lies at least r from
the target, counted from the selection that agrees with the target at
the pivots).  They search the combinations by layers r = 1, 2, ... and
stop once r exceeds the best weight found: strictly, so every tie at the
minimum is seen and the tie-break holds.  A search that would try more
than max(2**8, 2**dim / 16) combinations, and a nearest-codeword search
over dependent rows, hands over to the whole span, enumerated in numpy
blocks: a table of all combinations of the low 16 rows, built by
doubling, XORed with each combination of the rest.  Vectors are stored
as 32-bit limbs, so any column count works.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import Iterator, Sequence

import numpy as np

from .errors import TooLarge

ENUM_CAP_BITS = 24
_TABLE_BITS = 16
# The layer search hands over to the blocked enumeration once it would try
# more than max(2**_LAYER_DIM, 2**dim / _SPAN_SHARE) combinations.  A
# combination costs Python 5 to 20 times what a span member costs numpy
# (48 to 200 columns), so no input costs much more than twice the blocked
# enumeration; up to dimension 8 numpy's fixed cost is the larger and the
# layers run to the end.
_LAYER_DIM = 8
_SPAN_SHARE = 16
_NEVER = np.iinfo(np.int64).max

_POP16 = np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8)).reshape(-1, 16).sum(1, np.uint8)


def _eliminate(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot bits), in
    coordinate order of the pivots."""
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = row.bit_length() - 1
        # back-substitute into earlier rows
        for i, r in enumerate(reduced):
            if (r >> p) & 1:
                reduced[i] = r ^ row
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: -pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


def rref_basis(vectors: Sequence[int], cols: int) -> list[int]:
    """Canonical RREF basis of the span of the given vectors."""
    reduced, _ = _eliminate(list(vectors), cols)
    return reduced


def rank(vectors: Sequence[int], cols: int) -> int:
    return len(rref_basis(vectors, cols))


def nullspace(rows: Sequence[int], cols: int) -> list[int]:
    """Basis of {x : row·x = 0 for all rows}, one vector per free column,
    in coordinate order."""
    return _free_basis(*_eliminate(list(rows), cols), cols)


def _free_basis(reduced: list[int], pivots: list[int], cols: int) -> list[int]:
    """`nullspace` of rows already in reduced row echelon form."""
    pivot_set = set(pivots)
    basis = []
    for free in reversed(range(cols)):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, p in zip(reduced, pivots):
            if (r >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def solve_affine(equations: Sequence[tuple[int, int]], cols: int) -> tuple[int, list[int]] | None:
    """Particular solution (free columns zero) and nullspace basis of the
    (row, bit) equations row·x = bit.

    Returns None iff the system is inconsistent.
    """
    # augment with the rhs in a new lowest column
    reduced, pivots = _eliminate([(row << 1) | (b & 1) for row, b in equations], cols + 1)
    particular = 0
    for r, p in zip(reduced, pivots):
        if p == 0:
            return None  # row 0 = 1
        if r & 1:
            particular |= 1 << (p - 1)
    return particular, _free_basis([r >> 1 for r in reduced], [p - 1 for p in pivots], cols)


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element bit count of an integer array whose values fit in 32 bits."""
    return _POP16[arr & 0xFFFF] + _POP16[arr >> 16]


def _limbs(vectors: Sequence[int], width: int) -> np.ndarray:
    """(limbs, len(vectors)) uint32 array, one vector per column, most
    significant limb first."""
    count = max(1, -(-width // 32))
    return np.array(
        [[(v >> (32 * j)) & 0xFFFFFFFF for v in vectors] for j in reversed(range(count))],
        dtype=np.uint32,
    ).reshape(count, len(vectors))


def _combinations(limbs: np.ndarray) -> np.ndarray:
    """All 2**k XOR combinations of k limb columns, one per column; bit i
    of the column index selects column i.  Built by doubling."""
    k = limbs.shape[1]
    table = np.zeros((len(limbs), 1 << k), dtype=np.uint32)
    for i in range(k):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] ^ limbs[:, i : i + 1]
    return table


def _span_blocks(rows: Sequence[int], width: int, extra: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, block) over the span of `rows` shifted by `extra`:
    column j of the block is the member whose combination index (bit i
    selects rows[i]) is first + j.  One table covers the low _TABLE_BITS
    rows; each combination of the high rows shifts it."""
    width = max([width, extra.bit_length()] + [r.bit_length() for r in rows])
    low = min(len(rows), _TABLE_BITS)
    limbs = _limbs([*rows, extra], width)
    table = _combinations(limbs[:, :low]) ^ limbs[:, -1:]
    offsets = _combinations(limbs[:, low:-1])
    for high in range(offsets.shape[1]):
        yield high << low, table ^ offsets[:, high : high + 1]


def _weights(block: np.ndarray) -> np.ndarray:
    return popcount(block).sum(axis=0, dtype=np.int64)


def _vector(limbs: np.ndarray) -> int:
    out = 0
    for limb in limbs:
        out = (out << 32) | int(limb)
    return out


def _layer_search(rows: Sequence[int], tail: int, base: int, empty: bool) -> tuple[int, int] | None:
    """The least (popcount of x >> tail, low `tail` bits of x) over
    x = base ^ (XOR of r rows), r >= 1, and r = 0 too if `empty`.

    Each row must own a pivot bit above `tail` that no other row and not
    `base` holds, so a combination of r rows scores at least r.  Layer r
    tries the r-row combinations, and the search stops once r exceeds the
    best score: strictly, so every tie at the best score is seen.  None
    once the combinations tried would pass max(2**_LAYER_DIM,
    2**len(rows) / _SPAN_SHARE).
    """
    k = len(rows)
    low = (1 << tail) - 1
    budget = max(1 << _LAYER_DIM, (1 << k) // _SPAN_SHARE)
    if empty:
        score, best = (base >> tail).bit_count(), base
    else:  # start above every score: a combination holds no bit outside the union
        score, best = (reduce(or_, rows, base) >> tail).bit_count() + 1, 0
    for r in range(1, k + 1):
        if r > score:
            break
        budget -= comb(k, r)
        if budget < 0:
            return None
        # each prefix of r - 1 rows is extended by every later row
        for prefix in combinations(range(k - 1), r - 1):
            p = base
            for i in prefix:
                p ^= rows[i]
            for row in rows[prefix[-1] + 1 if prefix else 0 :]:
                x = p ^ row
                w = (x >> tail).bit_count()
                if w <= score and (w < score or x & low < best & low):
                    score, best = w, x
    return score, best & low


def min_weight_nonzero(basis: Sequence[int], cols: int) -> tuple[int, int] | None:
    """Minimum-weight nonzero span member; None for the zero-dimensional space.

    Ties break toward the smallest vector, i.e. the smallest bitstring.
    Searches the combinations of the RREF rows by layers, each row tagged
    below with itself so the tie-break reads the vector
    (`_layer_search`); a search past its budget enumerates the span
    instead (`_min_weight_blocks`).
    """
    dim = len(basis)
    if dim > ENUM_CAP_BITS:
        raise TooLarge(f"nullspace dimension {dim} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
    reduced, _ = _eliminate(list(basis), cols)
    if not reduced:
        return None
    tail = reduced[0].bit_length()  # the first row holds the highest pivot
    found = _layer_search([(v << tail) | v for v in reduced], tail, 0, empty=False)
    return found or _min_weight_blocks(reduced, cols)


def _min_weight_blocks(basis: Sequence[int], cols: int) -> tuple[int, int] | None:
    """`min_weight_nonzero` over all 2**dim combinations, a table block at a time."""
    best: tuple[int, int] | None = None
    for _, block in _span_blocks(basis, cols):
        weights = _weights(block)
        weights[weights == 0] = _NEVER  # the zero vector never counts
        low = int(weights.min())
        if low == _NEVER or (best is not None and low > best[0]):
            continue
        ties = block[:, weights == low]
        # lexsort's last key is the primary one: the most significant limb
        key = (low, _vector(ties[:, np.lexsort(ties[::-1])[0]]))
        if best is None or key < best:
            best = key
    return best


def nearest_codeword(generator_rows: Sequence[int], cols: int, target: int) -> tuple[int, int]:
    """Exact closest-codeword search over the message space.

    Returns (distance, message), where bit i of the message selects row i;
    ties break toward the lexicographically smallest message (MSB-first
    over message bits m[0..k-1]).  Independent rows are searched by
    layers around the selection that agrees with the target at the
    pivots, each RREF row tagged below with the message that builds it
    (`_layer_search`).  Dependent rows, whose messages share codewords,
    and a search past its budget enumerate the message space instead
    (`_nearest_blocks`).
    """
    k = len(generator_rows)
    if k > ENUM_CAP_BITS:
        raise TooLarge(f"message space 2**{k} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
    # the tag is the reversed message, whose bit k-1-j selects row j, so
    # numeric order on it is the tie-break order
    reduced, pivots = _eliminate(
        [(row << k) | (1 << (k - 1 - j)) for j, row in enumerate(generator_rows)], cols + k
    )
    found = None
    if not pivots or pivots[-1] >= k:  # no row reduced to a bare tag: independent rows
        base = target << k
        for row, p in zip(reduced, pivots):
            if (target >> (p - k)) & 1:
                base ^= row  # the codeword now agrees with the target at every pivot
        found = _layer_search(reduced, k, base, empty=True)
    distance, reversed_message = found or _nearest_blocks(generator_rows, cols, target)
    return distance, int(f"{reversed_message:0{k}b}"[::-1], 2)


def _nearest_blocks(generator_rows: Sequence[int], cols: int, target: int) -> tuple[int, int]:
    """(distance, reversed message) of `nearest_codeword` over all 2**k
    messages, a table block at a time."""
    # enumerate the reversed message, so numeric order on the combination
    # index is the tie-break order
    best: tuple[int, int] | None = None
    for first, block in _span_blocks(generator_rows[::-1], cols, target):
        distances = _weights(block)
        at = int(distances.argmin())  # the first minimum: smallest index
        key = (int(distances[at]), first + at)
        if best is None or key < best:
            best = key
    return best
