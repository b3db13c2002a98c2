"""Enumerate-then-subsume minimal implicates: the test oracle for
`relations._prime_implicates`, and the clause form of each shape.

Every one of the 3**arity sign patterns (each coordinate absent, positive
or negative), or only those a shape allows, is tested against every
member tuple, and the implicates found are kept unless an earlier,
shorter one is a subset.  The library's kernel must return exactly the
unfiltered tuple's clauses with at most one positive or at most one
negative literal, in the same order; on a relation that a shape admits,
that is the shape-filtered tuple.

`decomposition_holds` is the reference for `relations._verify_decomposition`:
one numpy pass over every code per clause.
"""

from __future__ import annotations

import itertools

import numpy as np

from minsol.gf2 import popcount
from minsol.relations import Clause, Relation, membership_table


def clause_allowed(shape: str, k: int | None, pos: tuple[int, ...], neg: tuple[int, ...]) -> bool:
    """Whether a disjunctive clause has the form of the shape's clauses:
    Horn, dual-Horn, width at most 2, implicative, or for the hitting-set
    shapes implicative or a same-sign clause of width 2..k."""
    np_, nn = len(pos), len(neg)
    if np_ + nn == 1:
        return True
    if shape == "horn":
        return np_ <= 1
    if shape == "dual_horn":
        return nn <= 1
    if shape == "bijunctive":
        return np_ + nn <= 2
    if shape == "monotone":
        return np_ <= 1 and nn <= 1
    if shape == "ihsb_pos":
        return (nn == 0 and 2 <= np_ <= k) or (np_ == 1 and nn == 1)
    return (np_ == 0 and 2 <= nn <= k) or (np_ == 1 and nn == 1)  # ihsb_neg


def minimal_implicates(r: Relation, shape: str | None = None, k: int | None = None) -> tuple[Clause, ...]:
    """The minimal implicates of r among the clauses the shape allows, or
    among all clauses when shape is None."""
    n = r.arity
    tuples = r.tuples()
    implicates: list[tuple[frozenset[int], Clause]] = []
    # signs per coordinate: absent / positive / negative
    for signs in itertools.product((0, 1, 2), repeat=n):
        pos = tuple(i for i in range(n) if signs[i] == 1)
        neg = tuple(i for i in range(n) if signs[i] == 2)
        if not pos and not neg:
            continue
        if shape is not None and not clause_allowed(shape, k, pos, neg):
            continue
        # a clause is falsified exactly by its positives at 0 and its negatives at 1
        support = sum(1 << (n - 1 - i) for i in pos + neg)
        falsified = sum(1 << (n - 1 - i) for i in neg)
        if all(t & support != falsified for t in tuples):
            cl = Clause(pos, neg)
            implicates.append((cl.literals(), cl))
    implicates.sort(key=lambda item: (len(item[0]), sorted(item[0])))
    kept: list[tuple[frozenset[int], Clause]] = []
    for lits, cl in implicates:
        if any(prev <= lits for prev, _ in kept):
            continue
        kept.append((lits, cl))
    return tuple(cl for _, cl in kept)


def decomposition_holds(r: Relation, clauses: tuple[Clause, ...]) -> bool:
    """Whether the clauses' models over every code are exactly r's."""
    n = r.arity
    codes = np.arange(1 << n)
    models = np.ones(1 << n, dtype=bool)
    for cl in clauses:
        support = sum(1 << (n - 1 - i) for i in cl.positives + cl.negatives)
        if cl.parity_bit is None:  # falsified by its positives at 0, its negatives at 1
            models &= (codes & support) != sum(1 << (n - 1 - i) for i in cl.negatives)
        else:
            models &= popcount(codes & support) % 2 == cl.parity_bit
    return bool(np.array_equal(models, membership_table(n, r.mask)))
