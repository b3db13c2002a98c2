#!/usr/bin/env python3
"""The GF(2) minimum-weight and nearest-codeword searches, from dimension
8 to the cap.

The grid crosses dimension 8-24 with a planted answer weight of 1 to
dim/2.  Each case is `dim` random rows over 4 * dim columns, the last
one the first XOR a planted member of that weight, so the minimum weight
is the planted one unless a random member is lighter, and a target that
is a random codeword plus a random error of that weight.  The seed is
fixed.

One line per case: dimension, planted weight, columns, then for
`min_weight_nonzero` and for `nearest_codeword` the answer's weight or
distance, milliseconds per call (the mean of repeated calls over at least
20 ms) and the path taken: `layers` when the layer bound stopped the
search, `span` when it handed over to the blocked span enumeration.  Up
to dimension 20 both answers are checked against the Gray-code oracle of
`tests/gf2_oracle.py`, ties included; a mismatch ends the run with exit
status 1.

Usage: PYTHONPATH=src python scripts/probe_gf2.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from gf2_oracle import gray_min_weight_nonzero, gray_nearest_codeword  # noqa: E402
from minsol import gf2  # noqa: E402

SEED = 20151109
GRID = [(dim, weight) for dim in range(8, 25) for weight in range(1, dim // 2 + 1)]
ORACLE_DIM = 20


def planted_case(dim: int, weight: int) -> tuple[list[int], int, int]:
    """(rows, columns, target) for one grid point."""
    rng = random.Random(f"{SEED}/{dim}/{weight}")
    cols = 4 * dim
    planted = sum(1 << c for c in rng.sample(range(cols), weight))
    rows = [rng.randrange(1, 1 << cols) for _ in range(dim - 1)]
    rows.append(rows[0] ^ planted)
    codeword = 0
    for r in rows:
        if rng.random() < 0.5:
            codeword ^= r
    error = sum(1 << c for c in rng.sample(range(cols), weight))
    return rows, cols, codeword ^ error


def timed(call: Callable[[], object]) -> tuple[object, float, str]:
    """(answer, ms per call, path) of repeated calls over at least 20 ms."""
    spans = []
    real = gf2._span_blocks
    gf2._span_blocks = lambda *args: spans.append(args) or real(*args)
    try:
        answer = call()
    finally:
        gf2._span_blocks = real
    calls, start = 0, time.perf_counter()
    while True:
        call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.02:
            return answer, elapsed / calls * 1000, "span" if spans else "layers"


def main() -> int:
    print(f"{'dim':>3} {'weight':>6} {'cols':>4}"
          f" {'min_wt':>6} {'ms':>9} {'path':>6}"
          f" {'near':>4} {'ms':>9} {'path':>6}  oracle")
    ok = True
    for dim, weight in GRID:
        rows, cols, target = planted_case(dim, weight)
        low, low_ms, low_path = timed(lambda: gf2.min_weight_nonzero(rows, cols))
        near, near_ms, near_path = timed(lambda: gf2.nearest_codeword(rows, cols, target))
        if dim <= ORACLE_DIM:
            same = (low == gray_min_weight_nonzero(rows)
                    and near == gray_nearest_codeword(rows, target))
            check = "ok" if same else "MISMATCH"
            ok &= same
        else:
            check = "-"
        print(f"{dim:>3} {weight:>6} {cols:>4}"
              f" {low[0]:>6} {low_ms:>9.3f} {low_path:>6}"
              f" {near[0]:>4} {near_ms:>9.3f} {near_path:>6}  {check}", flush=True)
    print(f"all answers up to dimension {ORACLE_DIM} match the Gray-code oracle" if ok
          else "MISMATCH against the Gray-code oracle")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
