#!/usr/bin/env python3
"""Cold model enumeration and the NSOL, XSOL and MSD oracle, from n = 13
to the cap.

The grid crosses atom arity 3-16 with n = 13-24.  Each case is three
atoms, each over its own random relation of that arity (every tuple a
coin flip, plus the tuples of two planted models, so the formula has at
least two models), on random variables: distinct ones while the arity
fits, repeated ones beyond.  The dense cases are planted `nae3` (2n
atoms) and `one_in_three` (n atoms) formulas at n = 14-24, as in the
benchmark's exhaustive workload.  The seed is fixed.  All of these have
MSD 1.  The code cases plant larger MSD: disjoint `one_in_three` atoms
at n = 24 (MSD 2), a nonlinear (6,7,3) code on interleaved variables at
n = 18 and 24 (MSD 3, the second with models in every block and a
bitset search priced above the pairwise scan), and an interleaved
5-member relation with members 2 apart at n = 20 and 24 (MSD 2).

Each case runs in a fresh process, so every cache is empty and the peak
resident set is that case's own.  One line per case: name, arity, n,
atoms, models, the milliseconds of the first `model_codes` call and of
`oracle_optimize` after it for MSD, for NSOL from a seeded assignment and
for XSOL from the first model, the three values, and the peak RSS of the
process before the reference runs.  Then the model codes are checked
against the numpy gather of `tests/enumeration_oracle.py`, the NSOL and
XSOL answers against a popcount argmin over the gathered codes, and the
MSD value and pair against `formulas._pairwise_pair` on the gathered
codes up to `PAIRWISE_CHECK` model pairs, else against the numpy radius
search of `tests/enumeration_oracle.py`; a mismatch or any exception
ends the run with exit status 1.

Usage: PYTHONPATH=src python scripts/probe_oracle.py
"""

from __future__ import annotations

import random
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from enumeration_oracle import gather_codes, nearest_code, radius_pair  # noqa: E402
from helpers import CODE_673, DIST2_5, ONE_IN_THREE_WORDS, planted_code  # noqa: E402
from minsol.formulas import (  # noqa: E402
    MSD,
    NSOL,
    XSOL,
    Assignment,
    Formula,
    _pairwise_pair,
    make_formula,
    model_codes,
    oracle_optimize,
)
from minsol.relations import BUILTIN_RELATIONS, Language, Relation  # noqa: E402

SEED = 20151109
GRID = [(arity, n) for arity in range(3, 17) for n in range(13, 25)]
DENSE = [(name, n) for name in ("nae3", "one_in_three") for n in range(14, 25)]
# case name -> (members, interleaved)
CODES = {
    "dis_1in3": (ONE_IN_THREE_WORDS, False),
    "code673": (CODE_673, True),
    "dist2_5": (DIST2_5, True),
}
CODE_CASES = [("dis_1in3", 24), ("code673", 18), ("code673", 24), ("dist2_5", 20), ("dist2_5", 24)]
PAIRWISE_CHECK = 5_000_000  # model pairs up to which the pairwise scan is the MSD reference


def _project(code: int, n: int, vs: list[int]) -> int:
    t = 0
    for v in vs:
        t = (t << 1) | (code >> (n - v)) & 1
    return t


def grid_formula(arity: int, n: int) -> Formula:
    rng = random.Random(f"{SEED}/{arity}/{n}")
    planted = [rng.getrandbits(n) for _ in range(2)]
    rels, atoms = [], []
    for i in range(3):
        if arity <= n:
            vs = rng.sample(range(1, n + 1), arity)
        else:
            vs = [rng.randint(1, n) for _ in range(arity)]
        mask = rng.getrandbits(1 << arity)
        for code in planted:
            mask |= 1 << _project(code, n, vs)
        rels.append((f"r{i}", Relation(arity, mask)))
        atoms.append((f"r{i}", vs))
    return make_formula(Language(tuple(rels)), n, atoms)


def dense_formula(name: str, n: int) -> Formula:
    rng = random.Random(f"{SEED}/{name}/{n}")
    rel = BUILTIN_RELATIONS[name]
    planted = [rng.getrandbits(n) for _ in range(2)]
    atoms: list[tuple[str, list[int]]] = []
    for _ in range(10_000):
        if len(atoms) == (2 * n if name == "nae3" else n):
            break
        vs = rng.sample(range(1, n + 1), 3)
        if all(rel.contains(_project(code, n, vs)) for code in planted):
            atoms.append((name, vs))
    return make_formula(Language(((name, rel),)), n, atoms)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def case_formula(name: str, arity: int, n: int) -> Formula:
    if name == "grid":
        return grid_formula(arity, n)
    if name in CODES:
        words, interleaved = CODES[name]
        return planted_code(words, n, interleaved)
    return dense_formula(name, n)


def msd_reference(codes, n: int) -> tuple[int, int, int]:
    if len(codes) * (len(codes) - 1) // 2 <= PAIRWISE_CHECK:
        return _pairwise_pair(codes, n)
    return radius_pair(codes, n)


def measure(name: str, arity: int, n: int) -> tuple[str, bool]:
    f = case_formula(name, arity, n)
    point = Assignment.from_code(random.Random(f"{SEED}/m/{name}/{arity}/{n}").getrandbits(n), n)
    t0 = time.perf_counter()
    codes = model_codes(f)
    t1 = time.perf_counter()
    msd = oracle_optimize(MSD, f)
    t2 = time.perf_counter()
    nsol = oracle_optimize(NSOL, f, point)
    t3 = time.perf_counter()
    first = Assignment.from_code(int(codes[0]), n)
    xsol = oracle_optimize(XSOL, f, first)
    t4 = time.perf_counter()
    peak = peak_mb()
    want = gather_codes(f)
    same = (
        codes.tolist() == want.tolist()
        and (nsol.value, nsol.witness.code()) == nearest_code(want, point.code())
        and (xsol.value, xsol.witness.code()) == nearest_code(want[1:], first.code())
        and (msd.value, msd.witness.code(), msd.witness2.code()) == msd_reference(want, n)
    )
    ms = [(b - a) * 1000 for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4))]
    line = (f"{name:12} {arity:>5} {n:>3} {len(f.atoms):>5} {len(codes):>8}"
            + "".join(f" {t:>9.1f}" for t in ms)
            + f" {msd.value:>3} {nsol.value:>4} {xsol.value:>4}"
            f" {peak:>8.0f}{'' if same else '  MISMATCH'}")
    return line, same


def fresh(*args) -> tuple[str, bool]:
    """measure(*args) in a new process, so every cache starts empty."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(measure, *args).result()


def main() -> int:
    print(f"{'case':12} {'arity':>5} {'n':>3} {'atoms':>5} {'models':>8}"
          f" {'codes_ms':>9} {'msd_ms':>9} {'nsol_ms':>9} {'xsol_ms':>9}"
          f" {'msd':>3} {'nsol':>4} {'xsol':>4} {'peak_mb':>8}")
    ok = True
    cases = [("grid", arity, n) for arity, n in GRID] + [(name, 3, n) for name, n in DENSE]
    cases += [(name, len(CODES[name][0][0]), n) for name, n in CODE_CASES]
    for case in cases:
        line, same = fresh(*case)
        print(line, flush=True)
        ok &= same
    print("all models and NSOL/XSOL/MSD answers match the reference" if ok
          else "MISMATCH against the reference")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
