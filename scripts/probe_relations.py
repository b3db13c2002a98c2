#!/usr/bin/env python3
"""Cold clause extraction and cold classification on wide relations.

The first table times clause extraction.  For each arity in 8, 10, 12,
14 and 16 it decomposes three relations: `or_rel` into dual-Horn clauses,
`nand_rel` into Horn clauses, and one Horn closure (the models of
3 * arity random Horn 3-clauses, seed fixed per arity) into Horn clauses.
Each case runs in a fresh process, so every cache is empty and the peak
resident set is that case's own.  One line per case: relation, arity,
members, clauses, milliseconds of the `cnf_decompose` call (which
includes the polymorphism test that admits the shape and the verification
of the clauses), the peak RSS of the process and its growth over the peak
before the call.  Building the relation is not timed.  The probe exits 1
when any extraction grows the peak by more than GROWTH_LIMIT_MB: a table
over the 3**arity partial assignments would take tens of megabytes at
arity 16.

The second table times `classify` plus `all_verdicts` on a one-relation
language, again one fresh process per case: `or_rel` at arity 8, 10 and
12, and `nand_rel` and the Horn closure at arity 8, 10, 12, 14 and 16;
`or_rel(k)` without the tuple of code 1 at arity 8, 10, 12, 14 and 16;
x0 -> x1 padded with free coordinates to arity 8, 10, 12, 14 and 16 and
x0 = x1 padded to arity 9, 11, 13 and 15; and random arity-10 relations of
300 and 900 members (seed fixed).  One line per case: relation, arity,
members, the label and the milliseconds of the two calls.

Usage: PYTHONPATH=src python scripts/probe_relations.py
"""

from __future__ import annotations

import random
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from minsol.postlattice import all_verdicts, classify
from minsol.relations import EQ2, IMPL, Language, Relation, cnf_decompose, nand_rel, or_rel

ARITIES = (8, 10, 12, 14, 16)
SEED = 20151109
GROWTH_LIMIT_MB = 5


def from_keep(arity: int, keep: np.ndarray) -> Relation:
    return Relation(arity, int.from_bytes(np.packbits(keep, bitorder="little").tobytes(), "little"))


def horn_closure(arity: int) -> Relation:
    rng = random.Random(f"{SEED}/{arity}")
    codes = np.arange(1 << arity)
    keep = np.ones(1 << arity, dtype=bool)
    for _ in range(3 * arity):
        a, b, c = ((codes >> (arity - 1 - i)) & 1 for i in rng.sample(range(arity), 3))
        keep &= (a & b & ~c & 1) == 0  # [-a | -b | c]
    return from_keep(arity, keep)


def padded(base: Relation, arity: int) -> Relation:
    """base on the first coordinates, every other coordinate free."""
    table = np.array([base.contains(c) for c in range(1 << base.arity)])
    return from_keep(arity, table[np.arange(1 << arity) >> (arity - base.arity)])


def random_rel(arity: int, size: int) -> Relation:
    rng = random.Random(f"{SEED}/{arity}/{size}")
    return Relation.from_tuples(arity, rng.sample(range(1 << arity), size))


CASES = {
    "or_rel": (or_rel, "dual_horn"),
    "nand_rel": (nand_rel, "horn"),
    "horn_closure": (horn_closure, "horn"),
}


CLASSIFY_BUILDERS = {
    "or_rel": or_rel,
    "nand_rel": nand_rel,
    "horn_closure": horn_closure,
    "or_minus_1": lambda arity: Relation(arity, or_rel(arity).mask & ~0b10),
    "impl_padded": lambda arity: padded(IMPL, arity),
    "eq_padded": lambda arity: padded(EQ2, arity),
    "random_300": lambda arity: random_rel(arity, 300),
    "random_900": lambda arity: random_rel(arity, 900),
}
CLASSIFY_CASES = [("or_rel", arity) for arity in (8, 10, 12)]
CLASSIFY_CASES += [(name, arity) for name in ("nand_rel", "horn_closure") for arity in ARITIES]
CLASSIFY_CASES += [(name, arity) for name in ("or_minus_1", "impl_padded") for arity in ARITIES]
CLASSIFY_CASES += [("eq_padded", arity) for arity in (9, 11, 13, 15)]
CLASSIFY_CASES += [("random_300", 10), ("random_900", 10)]


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, arity: int) -> tuple[str, float]:
    """The table line of one extraction, and its peak RSS growth in MB."""
    build, shape = CASES[name]
    r = build(arity)
    before = peak_mb()
    t0 = time.perf_counter()
    clauses = cnf_decompose(r, shape)
    ms = (time.perf_counter() - t0) * 1000
    after = peak_mb()
    return (f"{name:13} {arity:>5} {r.size:>8} {len(clauses):>7} {ms:>9.1f}"
            f" {after:>8.0f} {after - before:>7.0f}"), after - before


def measure_classify(name: str, arity: int) -> str:
    r = CLASSIFY_BUILDERS[name](arity)
    gamma = Language((("r", r),))
    t0 = time.perf_counter()
    label = classify(gamma)
    all_verdicts(gamma)
    ms = (time.perf_counter() - t0) * 1000
    return f"{name:13} {arity:>5} {r.size:>8} {str(label):>8} {ms:>9.1f}"


def fresh(fn, *args) -> str:
    """fn(*args) in a new process, so every cache starts empty."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def main() -> None:
    print(f"{'relation':13} {'arity':>5} {'members':>8} {'clauses':>7} {'ms':>9}"
          f" {'peak_mb':>8} {'grew_mb':>7}")
    grown = []
    for arity in ARITIES:
        for name in CASES:
            line, grew = fresh(measure, name, arity)
            print(line, flush=True)
            if grew > GROWTH_LIMIT_MB:
                grown.append(f"{name} at arity {arity}")
    print(f"\n{'relation':13} {'arity':>5} {'members':>8} {'label':>8} {'ms':>9}")
    for name, arity in CLASSIFY_CASES:
        print(fresh(measure_classify, name, arity), flush=True)
    if grown:
        sys.exit(f"peak RSS grew by more than {GROWTH_LIMIT_MB} MB extracting {', '.join(grown)}")


if __name__ == "__main__":
    main()
