"""Reference propagation engines: the test oracles for `clauses`.

Pass-until-fixpoint unit propagation rescans each pending clause every
pass, so a chain of length L costs L passes.  `clauses.unit_propagate`,
given the clauses with the assumptions appended as unit clauses, must
return exactly what it returns: the same forced assignment, the same
residual clauses in the same order, and None on the same inputs.
`ClauseIndex.probe` of the assumed literals, which goes on from the index
with its own unit clauses propagated, must force the same literals.

The 2-SAT references work on the implication graph directly: a model
read off its components, numbered by a recursive Tarjan, and the
half-variable completion by a depth-first walk per variable.  `clauses.twosat_model` and `nsol._twosat_toward` must
return the same models and fail on the same inputs.
"""

from __future__ import annotations

from typing import Iterable

from minsol.errors import InternalConsistencyError
from minsol.formulas import Assignment

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


def implication_graph(clauses: Iterable[LitClause]) -> dict[int, list[int]]:
    """(a or b) gives -a -> b and -b -> a, a unit (a) gives -a -> a."""
    succ: dict[int, list[int]] = {}
    for c in clauses:
        if len(c) == 1:
            (a,) = c
            succ.setdefault(-a, []).append(a)
        elif len(c) == 2:
            a, b = sorted(c)
            succ.setdefault(-a, []).append(b)
            succ.setdefault(-b, []).append(a)
    return succ


def tarjan_components(roots: Iterable[int], adj: dict[int, list[int]]) -> dict[int, int]:
    """Recursive Tarjan: components numbered in the order they complete."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []

    def visit(node: int) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        for nxt in adj.get(node, ()):
            if nxt not in index:
                visit(nxt)
                low[node] = min(low[node], low[nxt])
            elif nxt not in comp:
                low[node] = min(low[node], index[nxt])
        if low[node] == index[node]:
            number = len(set(comp.values()))
            while True:
                w = stack.pop()
                comp[w] = number
                if w == node:
                    break

    for root in roots:
        if root not in index:
            visit(root)
    return comp


def reference_twosat_model(clauses: Iterable[LitClause], n: int) -> Assignment | None:
    """2-SAT over clauses of one or two literals: v is true iff its
    component completes before -v's."""
    adj = implication_graph(clauses)
    variables = range(1, n + 1)
    comp = tarjan_components([l for v in variables for l in (v, -v)], adj)
    if any(comp[v] == comp[-v] for v in variables):
        return None
    return Assignment(tuple(int(comp[v] < comp[-v]) for v in variables))


def reference_twosat_toward(
    m: Assignment, variables: set[int], clauses: Iterable[LitClause]
) -> dict[int, int]:
    """Each variable in ascending order takes m's value and every literal
    a depth-first walk over `variables` finds it implies, stopping at set
    variables; on a conflict the other value; if both conflict, raise."""
    succ = implication_graph(clauses)
    model: dict[int, int] = {}

    def implied(lit: int) -> set[int] | None:
        seen, stack = {lit}, [lit]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if abs(nxt) not in variables:
                    continue
                if abs(nxt) in model:
                    if model[abs(nxt)] != (nxt > 0):
                        return None
                elif nxt not in seen:
                    if -nxt in seen:
                        return None
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for v in sorted(variables):
        if v not in model:
            lit = v if m.value(v) else -v
            forced = implied(lit) or implied(-lit)
            if forced is None:
                raise InternalConsistencyError("half-variable 2-SAT residue unsatisfiable")
            model.update((abs(l), int(l > 0)) for l in forced)
    return model
