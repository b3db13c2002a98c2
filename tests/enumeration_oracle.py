"""Reference model enumeration: the test oracle for `formulas._model_blocks`.

It builds each relation's membership table and each variable's bit column
over the codes of a block, and looks every atom up by a numpy gather over
every code.  `formulas.model_codes` and `formulas.enumerate_models` must
return exactly the models it yields, in the same order, and the NSOL/XSOL
oracle the model `nearest_code` picks from them.

`radius_pair` is the numpy radius search the MSD oracle ran on the decoded
codes before it searched the block ints: the reference for
`formulas._radius_pair`.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from minsol import formulas
from minsol.formulas import Formula
from minsol.gf2 import popcount
from minsol.relations import membership_table


def gather_blocks(formula: Formula) -> Iterator[np.ndarray]:
    """Yield ascending arrays of model codes, in blocks of
    2**`formulas._BLOCK_BITS` codes."""
    n = formula.var_count
    tables = {rel: membership_table(rel.arity, rel.mask) for rel in formula.bound}
    total = 1 << n
    step = 1 << min(formulas._BLOCK_BITS, n)
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.int64)
        columns: dict[int, np.ndarray] = {}
        ok = np.ones(len(codes), dtype=bool)
        for rel, (_, vars_) in zip(formula.bound, formula.atoms):
            idx = None
            for v in vars_:
                col = columns.get(v)
                if col is None:
                    col = columns[v] = (codes >> (n - v)) & 1
                if idx is None:
                    idx = col.copy()
                else:
                    idx <<= 1
                    idx |= col
            ok &= tables[rel][idx]
            if not ok.any():
                break
        yield codes[ok]


def gather_codes(formula: Formula) -> np.ndarray:
    """Ascending int64 array of all model codes."""
    blocks = [b for b in gather_blocks(formula) if len(b)]
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


def nearest_code(codes: np.ndarray, code: int) -> tuple[int, int]:
    """(distance, model): the first of the ascending codes nearest to code."""
    dist = popcount(codes ^ code)
    best = int(dist.argmin())
    return int(dist[best]), int(codes[best])


LOOKUPS = 1 << 20  # bitmap lookups per step of the radius search


@functools.lru_cache(maxsize=64)
def weight_masks(n: int, d: int) -> np.ndarray:
    """The n-bit masks with d bits set, read-only: each mask of weight
    d - 1 gains one bit above its top bit."""
    if d == 0:
        masks = np.zeros(1, dtype=np.int64)
    else:
        lighter = weight_masks(n, d - 1)
        masks = np.concatenate([lighter[lighter < (1 << b)] | (1 << b) for b in range(n)])
    masks.flags.writeable = False
    return masks


def radius_pair(codes: np.ndarray, n: int) -> tuple[int, int, int]:
    """(distance, a, b) for the lexicographically smallest closest pair
    a < b of at least two ascending model codes.

    For d = 1, 2, ... it looks up `code ^ mask` in a 2**n membership
    bitmap over the weight-d masks.  The first code with a partner at the
    least distance d has only greater partners (a smaller one would have
    come first), so it is the pair's `a` and its least partner is `b`.
    """
    member = np.zeros(1 << n, dtype=bool)
    member[codes] = True
    rows_per_block = min(len(codes), LOOKUPS)
    masks_per_chunk = max(1, LOOKUPS // rows_per_block)
    for d in range(1, n + 1):
        masks = weight_masks(n, d)
        for start in range(0, len(codes), rows_per_block):
            rows = codes[start : start + rows_per_block]
            best: tuple[int, int] | None = None
            for m0 in range(0, len(masks), masks_per_chunk):
                partners = rows[:, None] ^ masks[None, m0 : m0 + masks_per_chunk]
                hit = member[partners]
                first = int(hit.any(axis=1).argmax())
                if not hit[first].any():
                    continue
                cand = (start + first, int(partners[first][hit[first]].min()))
                if best is None or cand < best:
                    best = cand
                rows = rows[: first + 1]  # later chunks can only tie or lose
            if best is not None:
                return d, int(codes[best[0]]), best[1]
    raise ValueError("fewer than two codes")
