"""Pass-until-fixpoint unit propagation: the test oracle for `clauses`.

Every pass rescans each pending clause, so a chain of length L costs L
passes.  `clauses.unit_propagate` must return exactly what this returns:
the same forced assignment, the same residual clauses in the same order,
and None on the same inputs.
"""

from __future__ import annotations

from typing import Iterable

LitClause = frozenset[int]


def rescan_propagate(
    clauses: Iterable[LitClause], assumptions: dict[int, int] | None = None
) -> tuple[dict[int, int], list[LitClause]] | None:
    """Propagate forced literals; None on conflict.

    Returns the forced assignment and the residual clauses (references to
    unforced variables only).
    """
    assign: dict[int, int] = {}

    def set_lit(lit: int) -> bool:
        v, b = abs(lit), int(lit > 0)
        if v in assign:
            return assign[v] == b
        assign[v] = b
        return True

    for v, b in (assumptions or {}).items():
        if not set_lit(v if b else -v):
            return None
    pending: list[LitClause] = []
    for c in clauses:
        if len(c) == 1:
            if not set_lit(next(iter(c))):
                return None
        else:
            pending.append(c)
    changed = True
    while changed:
        changed = False
        survivors: list[LitClause] = []
        for c in pending:
            live: list[int] = []
            satisfied = False
            for lit in c:
                v = abs(lit)
                if v in assign:
                    if assign[v] == (lit > 0):
                        satisfied = True
                        break
                else:
                    live.append(lit)
            if satisfied:
                continue
            if not live:
                return None
            if len(live) == 1:
                if not set_lit(live[0]):
                    return None
                changed = True
                continue
            survivors.append(frozenset(live))
        pending = survivors
    return assign, pending


def rescan_probe(clauses: Iterable[LitClause], lit: int) -> set[int] | None:
    """The literals the oracle forces from `lit`, itself included; None on
    conflict."""
    propagated = rescan_propagate(clauses, {abs(lit): int(lit > 0)})
    if propagated is None:
        return None
    return {v if b else -v for v, b in propagated[0].items()}
