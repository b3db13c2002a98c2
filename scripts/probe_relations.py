#!/usr/bin/env python3
"""Cold clause extraction on wide relations: time and peak memory.

For each arity in 8, 10, 12, 14 and 16 it decomposes three relations:
`or_rel` into dual-Horn clauses, `nand_rel` into Horn clauses, and one
Horn closure (the models of 3 * arity random Horn 3-clauses, seed fixed
per arity) into Horn clauses.  Each case runs in a fresh process, so
every cache is empty and the peak resident set is that case's own.  One
line per case: relation, arity, members, clauses, milliseconds of the
`cnf_decompose` call (which includes the polymorphism test that admits
the shape and the verification of the clauses), the peak RSS of the
process and its growth over the peak before the call.  Building the
relation is not timed.

Usage: PYTHONPATH=src python scripts/probe_relations.py
"""

from __future__ import annotations

import random
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from minsol.relations import Relation, cnf_decompose, nand_rel, or_rel

ARITIES = (8, 10, 12, 14, 16)
SEED = 20151109


def horn_closure(arity: int) -> Relation:
    rng = random.Random(f"{SEED}/{arity}")
    codes = np.arange(1 << arity)
    keep = np.ones(1 << arity, dtype=bool)
    for _ in range(3 * arity):
        a, b, c = ((codes >> (arity - 1 - i)) & 1 for i in rng.sample(range(arity), 3))
        keep &= (a & b & ~c & 1) == 0  # [-a | -b | c]
    return Relation(arity, int.from_bytes(np.packbits(keep, bitorder="little").tobytes(), "little"))


CASES = {
    "or_rel": (or_rel, "dual_horn"),
    "nand_rel": (nand_rel, "horn"),
    "horn_closure": (horn_closure, "horn"),
}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, arity: int) -> str:
    build, shape = CASES[name]
    r = build(arity)
    before = peak_mb()
    t0 = time.perf_counter()
    clauses = cnf_decompose(r, shape)
    ms = (time.perf_counter() - t0) * 1000
    after = peak_mb()
    return (f"{name:13} {arity:>5} {r.size:>8} {len(clauses):>7} {ms:>9.1f}"
            f" {after:>8.0f} {after - before:>7.0f}")


def main() -> None:
    print(f"{'relation':13} {'arity':>5} {'members':>8} {'clauses':>7} {'ms':>9}"
          f" {'peak_mb':>8} {'grew_mb':>7}")
    for arity in ARITIES:
        for name in CASES:
            with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
                print(pool.submit(measure, name, arity).result(), flush=True)


if __name__ == "__main__":
    main()
