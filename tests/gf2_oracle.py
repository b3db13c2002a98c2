"""Gray-code enumeration of a GF(2) span: the test oracle for `gf2`.

One XOR per step over all 2**dim combinations, in pure Python.
`gf2.min_weight_nonzero` and `gf2.nearest_codeword` must return exactly
what these return, ties included.
"""

from __future__ import annotations

from typing import Sequence


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
