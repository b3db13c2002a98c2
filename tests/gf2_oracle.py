"""Gauss-Jordan elimination and enumerations of a whole GF(2) span: the
test oracles for `gf2`.

`gf2._rref`, `gf2.nullspace` and `gf2.solve_affine` must return exactly
what `gauss_jordan` and `gauss_jordan_solve` return: dense elimination,
which reduces each new row by every earlier one and back-substitutes it
into each of them, and reads the nullspace one free column at a time.

`gf2.min_weight_nonzero` and `gf2.nearest_codeword` must return exactly
what these return, ties included.  The Gray code takes one XOR per step
over all 2**dim combinations, in pure Python.  The span enumeration
(`span_min_weight_nonzero`, `span_nearest_codeword`) does the same in
numpy blocks, fast enough to be the reference up to dimension 24: a
table of all combinations of the low 16 rows, built by doubling, XORed
with each combination of the rest.  Vectors are stored as 32-bit limbs,
so any column count works.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from minsol.gf2 import popcount

_TABLE_BITS = 16
_NEVER = np.iinfo(np.int64).max


def gauss_jordan(rows: Sequence[int], prefer: int = 0) -> tuple[list[int], list[int]]:
    """(reduced rows, pivot bits) in descending pivot order.  A row pivots
    on its leading bit among the columns of `prefer`, or on its leading
    bit if it has none there."""
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = ((row & prefer) or row).bit_length() - 1
        for i, r in enumerate(reduced):
            if (r >> p) & 1:
                reduced[i] = r ^ row
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: -pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


def gauss_jordan_solve(equations: Sequence[tuple[int, int]], cols: int) -> tuple[int, list[int]] | None:
    """(particular solution with the free columns zero, nullspace basis
    with one vector per free column in coordinate order) of the (row, bit)
    equations row·x = bit, or None if they are inconsistent."""
    reduced, pivots = gauss_jordan([(row << 1) | (b & 1) for row, b in equations])
    if 0 in pivots:
        return None  # a row 0 = 1
    particular = sum(1 << (p - 1) for r, p in zip(reduced, pivots) if r & 1)
    basis = []
    for free in reversed(range(1, cols + 1)):
        if free not in pivots:
            basis.append((1 << free | sum(1 << p for r, p in zip(reduced, pivots) if r >> free & 1)) >> 1)
    return particular, basis


def gray_min_weight_nonzero(basis: Sequence[int]) -> tuple[int, int] | None:
    """Minimum (weight, vector) over the nonzero span members."""
    best: tuple[int, int] | None = None
    current = 0
    for i in range(1, 1 << len(basis)):
        current ^= basis[(i & -i).bit_length() - 1]
        if current == 0:
            continue
        key = (current.bit_count(), current)
        if best is None or key < best:
            best = key
    return best


def gray_nearest_codeword(generator_rows: Sequence[int], target: int) -> tuple[int, int]:
    """(distance, message) of the nearest codeword; bit i of the message
    selects row i, and ties go to the lexicographically smallest message
    (MSB-first over message bits m[0..k-1])."""
    k = len(generator_rows)
    # enumerate the reversed message, whose bit k-1-j selects row j, so
    # numeric order on it is the tie-break order
    best = (target.bit_count(), 0)  # message 0 -> zero codeword
    codeword = 0
    for i in range(1, 1 << k):
        # step i of the Gray code flips bit (i & -i).bit_length() - 1
        codeword ^= generator_rows[k - (i & -i).bit_length()]
        key = ((codeword ^ target).bit_count(), i ^ (i >> 1))
        if key < best:
            best = key
    distance, reversed_message = best
    return distance, int(f"{reversed_message:0{k}b}"[::-1], 2)


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


def span_min_weight_nonzero(basis: Sequence[int], cols: int) -> tuple[int, int] | None:
    """Minimum (weight, vector) over the nonzero span members, a table
    block at a time."""
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


def span_nearest_codeword(generator_rows: Sequence[int], cols: int, target: int) -> tuple[int, int]:
    """(distance, message) of the nearest codeword, as
    `gray_nearest_codeword`, a table block at a time."""
    k = len(generator_rows)
    # enumerate the reversed message, so numeric order on the combination
    # index is the tie-break order
    best: tuple[int, int] | None = None
    for first, block in _span_blocks(generator_rows[::-1], cols, target):
        distances = _weights(block)
        at = int(distances.argmin())  # the first minimum: smallest index
        key = (int(distances[at]), first + at)
        if best is None or key < best:
            best = key
    distance, reversed_message = best
    return distance, int(f"{reversed_message:0{k}b}"[::-1], 2)
