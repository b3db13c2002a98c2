"""Minimum-distance-between-models solvers.

The bijunctive and Horn routes read which literals force which others off
probes: the literals one assumed literal implies.  On 2-CNF every probe
comes at once from the bitset closure of the implication graph's
strongly connected components; on Horn clauses a positive probe is
counter-based unit propagation from one variable.  A probe that fails
forces the opposite literal.  The bijunctive route flips a minimal
class of literals, an SCC; the Horn route flips a minimal class of
variables with equal probes that has no dependent variable.  Affine
languages reduce to minimum code weight, everything else gets the
two-models n-approximation or the capped exhaustive fallback.
"""

from __future__ import annotations

from . import gf2
from .clauses import (
    ClauseIndex,
    LitClause,
    affine_solve,
    clause_index,
    twosat_model,
    unit_propagate,
)
from .decision import tssat
from .dispatch import Route, checked, dispatch
from .errors import (
    InternalConsistencyError,
    UniqueModel,
    Unsatisfiable,
)
from .formulas import (
    MSD,
    Assignment,
    Formula,
    oracle_optimize,
)
from .outcome import SolveOutcome, exact, n_approx


def _force_failed(
    forced: dict[int, int], residual: ClauseIndex, failed: list[int]
) -> tuple[dict[int, int], list[LitClause]]:
    """Force the negation of every failed probe; the forced values and the
    residual clauses over the variables still free.

    One round is enough: on 2-CNF and Horn clauses a probe fails exactly
    when the formula implies the negation.
    """
    fixed = {abs(lit): int(lit < 0) for lit in failed}
    propagated = unit_propagate(residual, fixed) if len(fixed) == len(failed) else None
    if propagated is None:
        raise Unsatisfiable("formula has no model")
    if len(forced) + len(propagated[0]) == residual.n:
        raise UniqueModel("all variables are forced")
    return {**forced, **propagated[0]}, propagated[1]


def msd_bijunctive(formula: Formula) -> SolveOutcome:
    """Minimal literal-equivalence class: an SCC of the implication graph
    of the residual binary clauses, flipped with what it implies and what
    its negation implies, read off the closure bitsets."""
    n = formula.var_count
    forced, index = clause_index(formula, "bijunctive").reduced
    comp = index.components
    probed = [s * v for v in range(1, n + 1) if v not in forced for s in (1, -1)]
    failed = [lit for lit in probed if index.reach(lit) & index.bit(-lit)]
    forced, residual = _force_failed(forced, index, failed)
    free = [lit for lit in probed if abs(lit) not in forced]
    classes: dict[int, list[int]] = {}
    for lit in free:
        classes.setdefault(comp[lit], []).append(lit)
    pivot = min(classes.values(), key=lambda c: (len(c), sorted((abs(l), l < 0) for l in c)))
    # with no failed probe the residual clauses are the index's own
    base = twosat_model(ClauseIndex(residual, n) if failed else index)
    if base is None:
        raise InternalConsistencyError("probes satisfiable but 2-SAT failed")
    code = sum(forced.get(v, base.value(v)) << (n - v) for v in range(1, n + 1))
    pos, neg = sum(index.bit(l) for l in pivot), sum(index.bit(-l) for l in pivot)
    # the free literals the pivot class or its negation implies hold either way
    implied = index.reach(pivot[0]) | index.reach(-pivot[0])
    implied &= sum(index.bit(l) for l in free) & ~(pos | neg)

    def build(true: int) -> Assignment:
        built = index.setting(code, true)
        if built is None:
            raise InternalConsistencyError("contradictory literal class values")
        return Assignment.from_code(built, n)

    w1, w2 = build(implied | neg), build(implied | pos)
    out = checked(MSD, formula, None, [w1, w2], exact(), "bijunctive_classes")
    if out.value != len(pivot):
        raise InternalConsistencyError("pivot class size does not match the distance")
    return out


def msd_horn(formula: Formula) -> SolveOutcome:
    """Minimal variable class without dependent variables, read off the
    positive unit-propagation probes: variables whose probes contain each
    other, that is, have equal probes."""
    n = formula.var_count
    forced, index = clause_index(formula, "horn").reduced
    probes = {v: index.probe(v) for v in range(1, n + 1) if v not in forced}
    forced, residual = _force_failed(forced, index, [v for v, p in probes.items() if p is None])
    free = {v for v in probes if v not in forced}
    classes: dict[frozenset[int], list[int]] = {}
    for v in free:
        classes.setdefault(frozenset(probes[v] & free), []).append(v)
    root = {v: probe for probe, members in classes.items() for v in members}
    # z is dependent when a clause derives it from variables it implies
    # but is not equivalent to
    dependent: set[frozenset[int]] = set()
    for cl in residual:
        pos = [l for l in cl if l > 0]
        if len(pos) != 1:
            continue
        z = pos[0]
        if all(-l in root[z] and root[-l] != root[z] for l in cl if l < 0):
            dependent.add(root[z])
    eligible = [r for r in classes if r not in dependent]
    if not eligible:
        raise InternalConsistencyError("no class without dependent variables")
    pivot_root = min(eligible, key=lambda r: (len(classes[r]), sorted(classes[r])))
    pivot = set(classes[pivot_root])
    implied = pivot_root - pivot

    def build(pivot_value: int) -> Assignment:
        bits = [forced.get(v, 0) for v in range(1, n + 1)]
        for v in pivot:
            bits[v - 1] = pivot_value
        for v in implied:
            bits[v - 1] = 1
        return Assignment(tuple(bits))

    w1, w2 = build(0), build(1)
    out = checked(MSD, formula, None, [w1, w2], exact(), "horn_closure")
    if out.value != len(pivot):
        raise InternalConsistencyError("pivot class size does not match the distance")
    return out


def msd_affine(formula: Formula) -> SolveOutcome:
    """Minimum nonzero weight of the homogeneous solution space."""
    n = formula.var_count
    solved = affine_solve(formula)
    if solved is None:
        raise Unsatisfiable("affine system inconsistent")
    particular, basis = solved
    found = gf2.min_weight_nonzero(basis, n)
    if found is None:
        raise UniqueModel("the affine solution space is a single point")
    weight, vector = found
    w1 = Assignment.from_code(particular, n)
    w2 = Assignment.from_code(particular ^ vector, n)
    out = checked(MSD, formula, None, [w1, w2], exact(), "affine_mindist")
    if out.value != weight:
        raise InternalConsistencyError("affine witnesses do not realize the weight")
    return out


def msd_napprox(formula: Formula) -> SolveOutcome:
    """Any two models, n-approximate (the optimum is at least 1)."""
    two = tssat(formula)
    if not two.satisfiable:
        raise Unsatisfiable("formula has no model")
    if not two.has_two:
        raise UniqueModel("formula has exactly one model")
    w1, w2 = two.witnesses
    return checked(MSD, formula, None, [w1, w2], n_approx(), "tssat_napprox")


def _oracle_fallback(formula: Formula) -> SolveOutcome:
    out = oracle_optimize(MSD, formula)
    return SolveOutcome(
        MSD, out.value, out.witness, out.witness2, exact(), None, "exhaustive_fallback"
    )


ROUTES = {
    "bijunctive_classes": Route(lambda f, m, v: msd_bijunctive(f), exact=True, poly=True),
    "horn_closure": Route(lambda f, m, v: msd_horn(f), exact=True, poly=True),
    "affine_mindist": Route(lambda f, m, v: msd_affine(f), exact=True, poly=False),
    "tssat_napprox": Route(lambda f, m, v: msd_napprox(f), exact=False, poly=True),
    "exhaustive_fallback": Route(lambda f, m, v: _oracle_fallback(f), exact=True, poly=False),
}


def solve_msd(formula: Formula, mode: str = "auto") -> SolveOutcome:
    """Dispatch the minimum-solution-distance classification."""
    return dispatch(MSD, ROUTES, "tssat_napprox", formula, None, mode)
