"""Formula-level clause extraction and small propositional engines.

Clauses over a formula are frozensets of signed 1-based literals
(+v / -v); tautologies are dropped at extraction time.  Parity
equations are bit-packed (row, bit) pairs with repeated variables
cancelled out.  A `ClauseIndex` serves every propagation: counter-based
unit propagation of the unit clauses once (`reduced`), every probe going
on from there, and for binary clauses the implication graph with one
numbering of its strongly connected components.  That numbering serves
every 2-SAT question: models are read off it, and its bitset closure
gives every literal's probe and closure at once.  The engines (unit
propagation, implication-graph 2-SAT, Horn propagation) are
deterministic so every solver built on them is reproducible.

One 64-entry cache holds the index per formula, shape and width, and
`cached_clauses` reads its clauses.  A larger cache only added clause
sets that every full garbage collection rescans: on the benchmark's
`ladder` stream a 4,096-entry one was never hit past the 64 most recent
formulas.
"""

from __future__ import annotations

import functools
from typing import Iterable

from . import gf2
from .errors import InternalConsistencyError, Unsatisfiable
from .formulas import Assignment, Formula
from .relations import cnf_decompose

LitClause = frozenset[int]


@functools.lru_cache(maxsize=64)
def parity_rows(formula: Formula) -> tuple[tuple[int, int], ...]:
    """GF(2) equations of an affine formula as (row, bit) pairs, rows the
    codes of `Assignment.code()`, repeated variables cancelled."""
    n = formula.var_count
    out: set[tuple[frozenset[int], int]] = set()
    for rel, (_, vars_) in zip(formula.bound, formula.atoms):
        for cl in cnf_decompose(rel, "parity"):
            support: set[int] = set()
            for i in cl.positives:
                support ^= {vars_[i]}
            bit = cl.parity_bit
            if not support:
                if bit:  # 0 = 1: the atom is unsatisfiable under identification
                    return ((0, 1),)
                continue
            out.add((frozenset(support), bit))
    equations = sorted(out, key=lambda e: (len(e[0]), sorted(e[0]), e[1]))
    return tuple((sum(1 << (n - v) for v in vs), bit) for vs, bit in equations)


def affine_solve(formula: Formula) -> tuple[int, list[int]] | None:
    """Particular solution and nullspace basis (gf2 vectors, the codes of
    `Assignment.code()`) of the formula's parity equations; None iff they
    are inconsistent."""
    return gf2.solve_affine(parity_rows(formula), formula.var_count)


class ClauseIndex:
    """A clause list over variables 1..n prepared for propagation, each
    part built on first use: the positions of the longer clauses by
    literal, and the residual index once the unit clauses are propagated.
    Propagation keeps a count of each touched clause's literals not yet set
    false (Dowling and Gallier, J. Logic Programming 1(3), 1984), so it is
    linear in the clauses it touches."""

    def __init__(self, clauses: Iterable[LitClause], n: int) -> None:
        self.clauses = tuple(clauses)
        self.n = n

    @functools.cached_property
    def occurs(self) -> dict[int, list[int]]:
        occurs: dict[int, list[int]] = {}
        for i, c in enumerate(self.clauses):
            if len(c) > 1:
                for lit in c:
                    occurs.setdefault(lit, []).append(i)
        return occurs

    def _spread(self, lits: Iterable[int]) -> dict[int, int] | None:
        """The assignment that sets `lits` and every literal they force, or
        None on conflict."""
        assign: dict[int, int] = {}
        for lit in lits:
            if assign.setdefault(abs(lit), int(lit > 0)) != (lit > 0):
                return None
        if not assign:  # nothing to spread: `occurs` is not built
            return assign
        clauses, occurs = self.clauses, self.occurs
        queue = [v if b else -v for v, b in assign.items()]
        left: dict[int, int] = {}  # touched clause -> literals not yet processed as false
        while queue:
            for i in occurs.get(-queue.pop(), ()):
                left[i] = k = left.get(i, len(clauses[i])) - 1
                # one literal not yet processed as false: true, forced now, or a conflict
                if k == 1:
                    for l in clauses[i]:
                        b = assign.get(abs(l))
                        if b is None:
                            assign[abs(l)] = int(l > 0)
                            queue.append(l)
                            break
                        if b == (l > 0):
                            break
                    else:
                        return None
        return assign

    def probe(self, *lits: int) -> set[int] | None:
        """The literals unit propagation forces from `lits`, themselves
        included, or None on conflict: `lits` spread over the residual
        clauses of `reduced`, which mention no forced variable."""
        try:
            forced, residual = self.reduced
        except Unsatisfiable:
            return None
        spread = residual._spread(lits)
        if spread is None or any(forced.get(abs(l), l > 0) != (l > 0) for l in lits):
            return None
        return {v if b else -v for v, b in (forced | spread).items()}

    @property
    def reduced(self) -> tuple[dict[int, int], ClauseIndex]:
        """Forced values (shared: do not mutate) and the index of the
        residual clauses, this index itself when no clause is a unit;
        raises Unsatisfiable on conflict."""
        return self._propagated or ({}, self)

    @functools.cached_property
    def _propagated(self) -> tuple[dict[int, int], ClauseIndex] | None:
        """`reduced` when a clause is a unit (or empty), else None: the
        index caches no tuple that holds itself, so dropping it frees it
        without waiting for the cycle collector."""
        if all(len(c) > 1 for c in self.clauses):
            return None
        propagated = unit_propagate(self)
        if propagated is None:
            raise Unsatisfiable("unit propagation conflict")
        return propagated[0], ClauseIndex(propagated[1], self.n)

    @functools.cached_property
    def succ(self) -> dict[int, list[int]]:
        """The implication graph of the clauses with one or two literals:
        (a or b) gives -a -> b and -b -> a, a unit (a) gives -a -> a."""
        succ: dict[int, list[int]] = {}
        for c in self.clauses:
            if len(c) == 1:
                (a,) = c
                succ.setdefault(-a, []).append(a)
            elif len(c) == 2:
                a, b = sorted(c)
                succ.setdefault(-a, []).append(b)
                succ.setdefault(-b, []).append(a)
        return succ

    def bit(self, lit: int) -> int:
        """Literal bitset layout: v at bit n - v, the code bit of v in
        `Assignment.code()`, and -v n bits higher."""
        return 1 << (self.n - lit if lit > 0 else 2 * self.n + lit)

    @functools.cached_property
    def components(self) -> dict[int, int]:
        """Each literal's strongly connected component in `succ` (Aspvall,
        Plass and Tarjan, IPL 8(3), 1979), from the roots 1, -1, ..., n, -n:
        every arc leads to the same or a smaller number."""
        return _tarjan_scc([l for v in range(1, self.n + 1) for l in (v, -v)], self.succ)

    @functools.cached_property
    def closure(self) -> list[int]:
        """Per component the bitset of the literals it reaches, ORed up in
        component order, successors first.  On clauses of exactly two
        literals a literal's set is its unit-propagation probe, which fails
        iff it holds the negation."""
        succ, comp, bit = self.succ, self.components, self.bit
        reach = [0] * (max(comp.values(), default=-1) + 1)
        for lit, c in comp.items():  # in numbering order, components contiguous
            r = reach[c] | bit(lit)
            for nxt in succ.get(lit, ()):
                r |= reach[comp[nxt]]
            reach[c] = r
        return reach

    def reach(self, lit: int) -> int:
        return self.closure[self.components[lit]]

    def setting(self, code: int, lits: int) -> int | None:
        """The assignment code `code` with every literal of the bitset
        `lits` made true; None if `lits` holds a literal and its negation."""
        ones, zeros = lits & ((1 << self.n) - 1), lits >> self.n
        return None if ones & zeros else (code | ones) & ~zeros

    def flips(self, code: int, forced: dict[int, int]) -> list[int]:
        """Per variable outside `forced`, in order, the assignment code
        `code` with that variable flipped and every literal the flipped
        literal reaches made true; a flip that reaches its own negation
        gives none.  On the binary residual of a 2-CNF whose forced values
        are `forced`, each is the nearest model with that flip."""
        n = self.n
        flipped = (-v if code >> (n - v) & 1 else v for v in range(1, n + 1) if v not in forced)
        candidates = (self.setting(code, self.reach(l)) for l in flipped)
        return [c for c in candidates if c is not None]


def clause_index(formula: Formula, shape: str, k: int | None = None) -> ClauseIndex:
    """The index of `cached_clauses(formula, shape, k)`, built once."""
    return _formula_clause_cache(formula, shape, k)


def unit_propagate(index: ClauseIndex) -> tuple[dict[int, int], list[LitClause]] | None:
    """Propagate the unit clauses; None on conflict.

    Returns the forced assignment and the residual clauses (references to
    unforced variables only), in clause order.
    """
    units = [l for c in index.clauses if len(c) == 1 for l in c]
    assign = index._spread(units) if all(index.clauses) else None
    if assign is None:
        return None
    satisfied: set[int] = set()
    touched: set[int] = set()
    for lit in (v if b else -v for v, b in assign.items()):
        satisfied.update(index.occurs.get(lit, ()))
        touched.update(index.occurs.get(-lit, ()))
    residual = [
        frozenset(l for l in c if abs(l) not in assign) if i in touched else c
        for i, c in enumerate(index.clauses)
        if len(c) > 1 and i not in satisfied
    ]
    return assign, residual


def twosat_model(index: ClauseIndex) -> Assignment | None:
    """Deterministic 2-SAT model read off the SCC numbering, or None; the
    clauses must have one or two literals."""
    if any(not 0 < len(c) <= 2 for c in index.clauses):
        raise InternalConsistencyError("twosat_model got a clause with >2 literals")
    comp = index.components
    variables = range(1, index.n + 1)
    if any(comp[v] == comp[-v] for v in variables):
        return None
    # Tarjan numbers components in reverse topological order, so the
    # smaller id sits closer to the sinks and wins the assignment.
    return Assignment(tuple(int(comp[v] < comp[-v]) for v in variables))


def _tarjan_scc(roots: Iterable[int], adj: dict[int, list[int]]) -> dict[int, int]:
    """Strongly connected components of the nodes reachable from `roots`,
    numbered in output order: every arc leads to the same or a smaller
    number.  A visited node stays on Tarjan's stack until it is numbered."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    comp_count = 0
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(adj.get(nxt, ()))))
                    break
                if nxt not in comp and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        comp[w] = comp_count
                        if w == node:
                            break
                    comp_count += 1
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return comp


def horn_model(
    index: ClauseIndex, assumptions: dict[int, int] | None = None, default: int = 0
) -> Assignment | None:
    """Deterministic Horn/dual-Horn model: the probe of the assumptions,
    every other variable `default`.  A Horn clause that propagation leaves
    unsatisfied keeps two free literals, one of them negative, so the 0
    fill satisfies it; dual-Horn clauses mirror this with 1."""
    forced = index.probe(*(v if b else -v for v, b in (assumptions or {}).items()))
    if forced is None:
        return None
    model = [default] * index.n
    for lit in forced:
        model[abs(lit) - 1] = int(lit > 0)
    return Assignment(tuple(model))


@functools.lru_cache(maxsize=64)
def _formula_clause_cache(formula: Formula, shape: str, k: int | None) -> ClauseIndex:
    """The index of every atom decomposed into the shape and mapped onto
    formula variables: each distinct clause once, tautologies dropped,
    shortest first, then by sorted variables, then by sorted literals.
    Each relation's clauses are read once, as signed 1-based coordinates."""
    templates: dict[int, list[tuple[int, ...]]] = {}
    distinct: set[tuple[int, ...]] = set()
    for rel, (_, vars_) in zip(formula.bound, formula.atoms):
        template = templates.get(id(rel))
        if template is None:
            template = templates[id(rel)] = [tuple(cl.literals()) for cl in cnf_decompose(rel, shape, k)]
        for t in template:
            c = {vars_[l - 1] if l > 0 else -vars_[-l - 1] for l in t}
            if len({abs(l) for l in c}) == len(c):
                distinct.add(tuple(sorted(c)))
    keyed = sorted([(len(lits), sorted(map(abs, lits)), lits) for lits in distinct])
    return ClauseIndex([frozenset(lits) for _, _, lits in keyed], formula.var_count)


def cached_clauses(formula: Formula, shape: str, k: int | None = None) -> tuple[LitClause, ...]:
    return _formula_clause_cache(formula, shape, k).clauses
