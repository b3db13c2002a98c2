"""Reference clause extraction: the test oracle for `clauses`.

Every atom's clauses are rebuilt as literal sets from their coordinates,
collected into one set and ordered by a key that sorts each clause twice.
`clauses.cached_clauses` must return exactly what it returns: the same
frozensets in the same order, since the SCC numbering of a clause index,
and with it every 2-SAT witness, follows that order.
"""

from __future__ import annotations

from minsol.formulas import Formula
from minsol.relations import cnf_decompose

LitClause = frozenset[int]


def reference_clauses(formula: Formula, shape: str, k: int | None = None) -> tuple[LitClause, ...]:
    """Every atom decomposed into the shape and mapped onto formula
    variables, tautologies dropped."""
    out: set[LitClause] = set()
    for rel, (_, vars_) in zip(formula.bound, formula.atoms):
        for cl in cnf_decompose(rel, shape, k):
            pos = {vars_[i] for i in cl.positives}
            neg = {vars_[i] for i in cl.negatives}
            if not pos & neg:
                out.add(frozenset(pos | {-v for v in neg}))
    return tuple(sorted(out, key=lambda c: (len(c), sorted(abs(l) for l in c), sorted(c))))
