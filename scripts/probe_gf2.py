#!/usr/bin/env python3
"""The GF(2) minimum-weight and nearest-codeword searches, from dimension
8 to the cap, each answer checked against a whole-span enumeration, and
`solve_affine` on large parity systems, checked against Gauss-Jordan.

Planted rows cross dimension 8-24 with a planted answer weight of 1 to
dim/2.  Each case is `dim` random rows over 4 * dim columns, the last
one the first XOR a planted member of that weight, so the minimum weight
is the planted one unless a random member is lighter, and a target that
is a random codeword plus a random error of that weight.

Far-target rows follow at dimensions 12, 16, 20 and 24, each with a
uniformly random target, usually far from every codeword: `repeat` rows,
where row i repeats a 1 over its own six columns plus 8 noise columns
below, so no column set prunes the nearest-codeword search, and `random`
rows over 6 * dim columns.  The seed is fixed.

One line per case: kind, dimension, columns, then for
`min_weight_nonzero` and for `nearest_codeword` the answer's weight or
distance and milliseconds per call (the mean of repeated calls over at
least 20 ms).  Up to dimension 20 the planted answers are checked
against the Gray-code oracle of `tests/gf2_oracle.py`; above it, and for
every far-target row, against its numpy span enumeration, whose
milliseconds per call print in the `span` columns.  Ties are included;
a mismatch ends the run with exit status 1.

Then `solve_affine` runs on the parity equations of the planted iL2 and
iD1 formulas of `scripts/probe_scaling.py` (seed 1) at n = 1,000, 3,000
and 10,000, after unit absorption, as the affine routes see them.  One
line per system: family, n, equations, solution dimension and
milliseconds; no time is gated.  Up to n = 3,000 the answer is checked
against the dense Gauss-Jordan reference of `tests/gf2_oracle.py`,
whose milliseconds print in the `gauss` column; a mismatch ends the run
with exit status 1.

Usage: PYTHONPATH=src python scripts/probe_gf2.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from dispatch_golden import planted  # noqa: E402
from gf2_oracle import (  # noqa: E402
    gauss_jordan_solve,
    gray_min_weight_nonzero,
    gray_nearest_codeword,
    span_min_weight_nonzero,
    span_nearest_codeword,
)
from helpers import FAMILY_LANGUAGES  # noqa: E402
from minsol import gf2  # noqa: E402
from minsol.clauses import parity_rows  # noqa: E402
from minsol.preprocess import absorb_units  # noqa: E402

SEED = 20151109
PLANTED = [(dim, weight) for dim in range(8, 25) for weight in range(1, dim // 2 + 1)]
FAR = [(kind, dim) for kind in ("repeat", "random") for dim in (12, 16, 20, 24)]
GRAY_DIM = 20
SYSTEMS = [(family, n) for n in (1000, 3000, 10_000) for family in ("iL2", "iD1")]
GAUSS_N = 3000


def planted_case(dim: int, weight: int) -> tuple[list[int], int, int]:
    """(rows, columns, target) for one planted grid point."""
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


def far_case(kind: str, dim: int) -> tuple[list[int], int, int]:
    """(rows, columns, target) for one far-target case."""
    rng = random.Random(f"{SEED}/{kind}/{dim}")
    if kind == "repeat":
        cols = 6 * dim + 8
        rows = [(0b111111 << (6 * i + 8)) | rng.randrange(1 << 8) for i in range(dim)]
    else:
        cols = 6 * dim
        rows = [rng.randrange(1, 1 << cols) for _ in range(dim)]
    return rows, cols, rng.randrange(1 << cols)


def timed(call: Callable[[], object]) -> tuple[object, float]:
    """(answer, ms per call) of repeated calls over at least 20 ms."""
    calls, start = 0, time.perf_counter()
    while True:
        answer = call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.02:
            return answer, elapsed / calls * 1000


def probe(kind: str, dim: int, rows: list[int], cols: int, target: int) -> bool:
    """Print one case's line; True iff both answers match the reference."""
    low, low_ms = timed(lambda: gf2.min_weight_nonzero(rows, cols))
    near, near_ms = timed(lambda: gf2.nearest_codeword(rows, cols, target))
    if kind.startswith("planted") and dim <= GRAY_DIM:
        want = gray_min_weight_nonzero(rows), gray_nearest_codeword(rows, target)
        spans = "-", "-"
    else:
        want_low, span_low_ms = timed(lambda: span_min_weight_nonzero(rows, cols))
        want_near, span_near_ms = timed(lambda: span_nearest_codeword(rows, cols, target))
        want = want_low, want_near
        spans = f"{span_low_ms:.3f}", f"{span_near_ms:.3f}"
    same = (low, near) == want
    print(f"{kind:<10} {dim:>3} {cols:>4}"
          f" {low[0]:>6} {low_ms:>9.3f} {spans[0]:>9}"
          f" {near[0]:>4} {near_ms:>9.3f} {spans[1]:>9}  {'ok' if same else 'MISMATCH'}",
          flush=True)
    return same


def parity_system(family: str, n: int) -> tuple[list[tuple[int, int]], int]:
    """(equations, columns) of `probe_scaling`'s planted formula at seed 1."""
    formula, _ = planted(FAMILY_LANGUAGES[family], random.Random(f"probe-scaling/1/{family}/{n}"), n)
    residual = absorb_units(formula)
    return list(parity_rows(residual)), residual.var_count


def probe_system(family: str, n: int) -> bool:
    """Print one system's line; True iff the answer matches Gauss-Jordan."""
    equations, cols = parity_system(family, n)
    got, ms = timed(lambda: gf2.solve_affine(equations, cols))
    same, gauss = True, "-"
    if n <= GAUSS_N:
        want, gauss_ms = timed(lambda: gauss_jordan_solve(equations, cols))
        same, gauss = got == want, f"{gauss_ms:.1f}"
    dim = "-" if got is None else len(got[1])
    print(f"{family:<6} {n:>6} {len(equations):>6} {dim:>5} {ms:>9.1f} {gauss:>9}"
          f"  {'ok' if same else 'MISMATCH'}", flush=True)
    return same


def main() -> int:
    print(f"{'kind':<10} {'dim':>3} {'cols':>4}"
          f" {'min_wt':>6} {'ms':>9} {'span':>9}"
          f" {'near':>4} {'ms':>9} {'span':>9}  check")
    ok = True
    for dim, weight in PLANTED:
        ok &= probe(f"planted {weight}", dim, *planted_case(dim, weight))
    for kind, dim in FAR:
        ok &= probe(kind, dim, *far_case(kind, dim))
    print(f"\n{'system':<6} {'n':>6} {'rows':>6} {'dim':>5} {'ms':>9} {'gauss':>9}  check")
    for family, n in SYSTEMS:
        ok &= probe_system(family, n)
    print("every answer matches its reference" if ok else "MISMATCH against the reference")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
