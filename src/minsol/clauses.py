"""Formula-level clause extraction and small propositional engines.

Clauses over a formula are frozensets of signed 1-based literals
(+v / -v); tautologies are dropped at extraction time.  Parity
constraints are (variable set, bit) pairs with repeated variables
cancelled out.  The engines here (unit propagation, implication-graph
2-SAT, Horn propagation) are deterministic so every solver built on
them is reproducible.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from . import gf2
from .errors import InternalConsistencyError
from .formulas import Assignment, Formula
from .relations import Clause, cnf_decompose

LitClause = frozenset[int]


def map_clause(clause: Clause, var_tuple: Sequence[int]) -> LitClause | None:
    """Instantiate a coordinate clause on atom variables; None if tautological."""
    pos = {var_tuple[i] for i in clause.positives}
    neg = {var_tuple[i] for i in clause.negatives}
    if pos & neg:
        return None
    return frozenset(pos | {-v for v in neg})


def formula_clauses(formula: Formula, shape: str, k: int | None = None) -> list[LitClause]:
    """Decompose every atom into the shape and map onto formula variables."""
    out: set[LitClause] = set()
    for name, vars_ in formula.atoms:
        rel = formula.relation(name)
        for cl in cnf_decompose(rel, shape, k):
            mapped = map_clause(cl, vars_)
            if mapped is not None:
                out.add(mapped)
    return sorted(out, key=lambda c: (len(c), sorted(abs(l) for l in c), sorted(c)))


def formula_parity(formula: Formula) -> list[tuple[frozenset[int], int]]:
    """GF(2) equations of an affine formula, repeated variables cancelled."""
    out: set[tuple[frozenset[int], int]] = set()
    for name, vars_ in formula.atoms:
        rel = formula.relation(name)
        for cl in cnf_decompose(rel, "parity"):
            support: set[int] = set()
            for i in cl.positives:
                support ^= {vars_[i]}
            bit = cl.parity_bit
            if not support:
                if bit:  # 0 = 1: the atom is unsatisfiable under identification
                    return [(frozenset(), 1)]
                continue
            out.add((frozenset(support), bit))
    return sorted(out, key=lambda e: (len(e[0]), sorted(e[0]), e[1]))


def affine_solve(
    formula: Formula, assumptions: dict[int, int] | None = None
) -> tuple[int, list[int]] | None:
    """Particular solution and nullspace basis (gf2 vectors, the codes of
    `Assignment.code()`) of the formula's parity equations plus the unit
    `assumptions`; None iff they are inconsistent."""
    n = formula.var_count
    equations = [(sum(1 << (n - v) for v in vs), bit) for vs, bit in formula_parity(formula)]
    equations += [(1 << (n - v), b) for v, b in (assumptions or {}).items()]
    return gf2.solve_affine(equations, n)


def unit_propagate(
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


def twosat_model(
    n: int, clauses: Iterable[LitClause], assumptions: dict[int, int] | None = None
) -> dict[int, int] | None:
    """Deterministic 2-SAT model via the implication graph, or None.

    Clauses must have at most two literals.
    """
    lits: list[LitClause] = list(clauses)
    for v, b in (assumptions or {}).items():
        lits.append(frozenset({v if b else -v}))
    # literal encoding: var v -> 2v (positive), 2v+1 (negative)
    def enc(lit: int) -> int:
        return 2 * abs(lit) + (0 if lit > 0 else 1)

    adj: dict[int, list[int]] = {}

    def edge(u: int, w: int) -> None:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, [])

    used_vars: set[int] = set()
    for c in lits:
        items = sorted(c)
        used_vars.update(abs(l) for l in items)
        if len(items) == 1:
            (a,) = items
            edge(enc(-a), enc(a))
        elif len(items) == 2:
            a, b = items
            edge(enc(-a), enc(b))
            edge(enc(-b), enc(a))
        else:
            raise InternalConsistencyError("twosat_model got a clause with >2 literals")
    for v in range(1, n + 1):
        adj.setdefault(2 * v, [])
        adj.setdefault(2 * v + 1, [])
    comp = _tarjan_scc(adj)
    model: dict[int, int] = {}
    for v in range(1, n + 1):
        cp, cn = comp[2 * v], comp[2 * v + 1]
        if cp == cn:
            return None
        # Tarjan numbers components in reverse topological order, so the
        # smaller id sits closer to the sinks and wins the assignment.
        model[v] = int(cp < cn)
    return model


def _tarjan_scc(adj: dict[int, list[int]]) -> dict[int, int]:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = comp_count
                    if w == node:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def horn_model(
    n: int,
    clauses: Iterable[LitClause],
    assumptions: dict[int, int] | None = None,
    default: int = 0,
) -> dict[int, int] | None:
    """Deterministic Horn/dual-Horn model: propagate, fill with `default`."""
    propagated = unit_propagate(clauses, assumptions)
    if propagated is None:
        return None
    assign, residual = propagated
    model = {v: assign.get(v, default) for v in range(1, n + 1)}
    for c in residual:
        if not any((l > 0) == bool(model[abs(l)]) for l in c):
            return None
    return model


def assignment_from(model: dict[int, int], n: int) -> Assignment:
    return Assignment(tuple(model.get(v, 0) for v in range(1, n + 1)))


@functools.lru_cache(maxsize=4096)
def _formula_clause_cache(formula: Formula, shape: str, k: int | None) -> tuple[LitClause, ...]:
    return tuple(formula_clauses(formula, shape, k))


def cached_clauses(formula: Formula, shape: str, k: int | None = None) -> tuple[LitClause, ...]:
    return _formula_clause_cache(formula, shape, k)
