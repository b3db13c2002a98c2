"""Linear algebra over GF(2) with bit-packed rows.

A vector of length l is an int whose coordinate 0 is the leading bit
(bit l-1), the MSB-first order of assignment and tuple codes, so numeric
order on vectors is lexicographic order on their bitstrings.  Desk-scale
exact solvers for minimum weight and nearest codeword live here; both
enumerate exhaustively and refuse oversized instances.
"""

from __future__ import annotations

from typing import Sequence

from .errors import TooLarge

ENUM_CAP_BITS = 24


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
    reduced, pivots = _eliminate(list(rows), cols)
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
    basis = nullspace([r >> 1 for r in reduced], cols)
    return particular, basis


def min_weight_nonzero(basis: Sequence[int], cols: int) -> tuple[int, int] | None:
    """Minimum-weight nonzero span member; None for the zero-dimensional space.

    Ties break toward the smallest vector, i.e. the smallest bitstring.
    Gray-code enumeration over all 2**dim combinations.
    """
    dim = len(basis)
    if dim == 0:
        return None
    if dim > ENUM_CAP_BITS:
        raise TooLarge(f"nullspace dimension {dim} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
    best: tuple[int, int] | None = None
    current = 0
    for i in range(1, 1 << dim):
        current ^= basis[(i & -i).bit_length() - 1]
        if current == 0:
            continue
        key = (current.bit_count(), current)
        if best is None or key < best:
            best = key
    return best


def nearest_codeword(generator_rows: Sequence[int], cols: int, target: int) -> tuple[int, int]:
    """Exact closest-codeword search over the whole message space.

    Returns (distance, message), where bit i of the message selects row i;
    ties break toward the lexicographically smallest message (MSB-first
    over message bits m[0..k-1]).
    """
    k = len(generator_rows)
    if k > ENUM_CAP_BITS:
        raise TooLarge(f"message space 2**{k} exceeds 2**{ENUM_CAP_BITS} enumeration cap")
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
