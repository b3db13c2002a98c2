"""Enumerate-then-subsume minimal implicates: the test oracle for
`relations._minimal_implicates`.

Every one of the 3**arity sign patterns (each coordinate absent, positive
or negative) that the shape allows is tested against every member tuple,
and the implicates found are kept unless an earlier, shorter one is a
subset.  The library's subcube transform must return exactly this tuple,
in the same order.
"""

from __future__ import annotations

import itertools

from minsol.relations import Clause, Relation, _clause_allowed, code_bits


def minimal_implicates(r: Relation, shape: str, k: int | None) -> tuple[Clause, ...]:
    n = r.arity
    tuples = r.tuples()
    implicates: list[tuple[frozenset[int], Clause]] = []
    # signs per coordinate: absent / positive / negative
    for signs in itertools.product((0, 1, 2), repeat=n):
        pos = tuple(i for i in range(n) if signs[i] == 1)
        neg = tuple(i for i in range(n) if signs[i] == 2)
        if not pos and not neg:
            continue
        if not _clause_allowed(shape, k, pos, neg):
            continue
        cl = Clause(pos, neg)
        if all(cl.holds(code_bits(t, n)) for t in tuples):
            implicates.append((cl.literals(), cl))
    implicates.sort(key=lambda item: (len(item[0]), sorted(item[0])))
    kept: list[tuple[frozenset[int], Clause]] = []
    for lits, cl in implicates:
        if any(prev <= lits for prev, _ in kept):
            continue
        kept.append((lits, cl))
    return tuple(cl for _, cl in kept)
