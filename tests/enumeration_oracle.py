"""Reference model enumeration: the test oracle for `formulas._model_blocks`.

It builds each relation's membership table and each variable's bit column
over the codes of a block, and looks every atom up by a numpy gather over
every code.  `formulas.model_codes` and `formulas.enumerate_models` must
return exactly the models it yields, in the same order, and the NSOL/XSOL
oracle the model `nearest_code` picks from them.
"""

from __future__ import annotations

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
