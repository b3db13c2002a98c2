"""Minimum-distance-between-models solvers.

The bijunctive and Horn routes read which literals force which others off
probes: unit propagation from one assumed literal.  On 2-CNF a probe
finds every literal the assumption implies, and so does a positive probe
on Horn clauses; a probe that fails forces the opposite literal.  The
bijunctive route flips a minimal class of literals whose probes contain
each other; the Horn route flips a minimal class of variables that has no
dependent variable.  Affine languages reduce to minimum code weight,
everything else gets the two-models n-approximation or the capped
exhaustive fallback.
"""

from __future__ import annotations

from . import gf2
from .clauses import LitClause, affine_solve, cached_clauses, twosat_model, unit_propagate
from .decision import tssat
from .dispatch import Route, checked, dispatch, via_dual
from .errors import (
    InternalConsistencyError,
    UniqueModel,
    Unsatisfiable,
)
from .formulas import (
    MSD,
    ORACLE_VAR_CAP,
    Assignment,
    Formula,
    oracle_optimize,
)
from .outcome import SolveOutcome, exact, n_approx


def _probe(clauses: list[LitClause], lit: int) -> set[int] | None:
    """The literals unit propagation forces from `lit`, itself included;
    None if it conflicts.  On 2-CNF, and on Horn clauses from a positive
    `lit`, these are exactly the literals `lit` implies."""
    propagated = unit_propagate(clauses, {abs(lit): int(lit > 0)})
    if propagated is None:
        return None
    return {v if b else -v for v, b in propagated[0].items()}


def _probed(
    formula: Formula, shape: str, signs: tuple[int, ...]
) -> tuple[dict[int, int], list[LitClause], dict[int, set[int]]]:
    """Forced values, the residual clauses over the unforced variables, and
    the probe of every unforced literal of the given signs, cut down to
    those literals.

    Unit propagation over the formula's clauses of `shape` forces the
    first values; then every literal whose probe fails forces its
    negation.  One round is enough: on 2-CNF and Horn clauses a probe
    fails exactly when the formula implies the negation.
    """
    n = formula.var_count
    propagated = unit_propagate(cached_clauses(formula, shape))
    if propagated is None:
        raise Unsatisfiable("formula has no model")
    forced, residual = propagated
    probes = {
        s * v: _probe(residual, s * v) for v in range(1, n + 1) if v not in forced for s in signs
    }
    failed = [frozenset({-lit}) for lit, probe in probes.items() if probe is None]
    propagated = unit_propagate([*residual, *failed])
    if propagated is None:
        raise Unsatisfiable("formula has no model")
    forced.update(propagated[0])
    if len(forced) == n:
        raise UniqueModel("all variables are forced")
    free = {lit for lit in probes if abs(lit) not in forced}
    return forced, propagated[1], {lit: probes[lit] & free for lit in probes if lit in free}


def _classes(probes: dict[int, set[int]]) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Classes of probed literals whose probes contain each other: the class
    root of each literal, and the members of each class."""
    root: dict[int, int] = {}
    classes: dict[int, list[int]] = {}
    for x, probe in probes.items():
        if x not in root:
            classes[x] = [y for y in probe if x in probes[y]]
            root.update(dict.fromkeys(classes[x], x))
    return root, classes


def msd_bijunctive(formula: Formula) -> SolveOutcome:
    """Minimal literal-equivalence class, read off unit-propagation probes."""
    n = formula.var_count
    forced, residual, probes = _probed(formula, "bijunctive", (1, -1))
    root, classes = _classes(probes)
    pivot_root = min(
        classes, key=lambda r: (len(classes[r]), sorted((abs(l), l < 0) for l in classes[r]))
    )
    # the pivot implies its successors and is implied by its predecessors
    succs = {root[y] for y in probes[pivot_root]} - {pivot_root}
    preds = {root[-y] for y in probes[-pivot_root]} - {pivot_root}
    base = twosat_model(n, residual)
    if base is None:
        raise InternalConsistencyError("probes satisfiable but 2-SAT failed")

    def literal_rule(l: int, pivot_value: int) -> int | None:
        if root[l] == pivot_root:
            return pivot_value
        if root[l] in preds:
            return 0
        if root[l] in succs:
            return 1
        return None

    def build(pivot_value: int) -> Assignment:
        bits = [forced.get(v, 0) for v in range(1, n + 1)]
        for v in {abs(l) for l in probes}:
            rp = literal_rule(v, pivot_value)
            rn = literal_rule(-v, pivot_value)
            if rp is None and rn is None:
                val = base[v]
            elif rn is None:
                val = rp
            elif rp is None:
                val = 1 - rn
            else:
                if rp != 1 - rn:
                    raise InternalConsistencyError("contradictory literal class values")
                val = rp
            bits[v - 1] = val
        return Assignment(tuple(bits))

    w1, w2 = build(0), build(1)
    out = checked(MSD, formula, None, [w1, w2], exact(), "bijunctive_classes")
    if out.value != len(classes[pivot_root]):
        raise InternalConsistencyError("pivot class size does not match the distance")
    return out


def msd_horn(formula: Formula, dual: bool = False) -> SolveOutcome:
    """Minimal variable class without dependent variables, read off the
    positive unit-propagation probes."""
    if dual:
        return via_dual(msd_horn, formula, None)
    n = formula.var_count
    forced, residual, probes = _probed(formula, "horn", (1,))
    root, classes = _classes(probes)
    # z is dependent when a clause derives it from variables it implies
    # but is not equivalent to
    dependent: set[int] = set()
    for cl in residual:
        pos = [l for l in cl if l > 0]
        if len(pos) != 1:
            continue
        z = pos[0]
        if all(-l in probes[z] and root[-l] != root[z] for l in cl if l < 0):
            dependent.add(root[z])
    eligible = [r for r in classes if r not in dependent]
    if not eligible:
        raise InternalConsistencyError("no class without dependent variables")
    pivot_root = min(eligible, key=lambda r: (len(classes[r]), sorted(classes[r])))
    pivot = set(classes[pivot_root])
    implied = probes[pivot_root] - pivot

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


def msd_napprox(formula: Formula, cap: int = ORACLE_VAR_CAP) -> SolveOutcome:
    """Any two models, n-approximate (the optimum is at least 1)."""
    two = tssat(formula, cap)
    if not two.satisfiable:
        raise Unsatisfiable("formula has no model")
    if not two.has_two:
        raise UniqueModel("formula has exactly one model")
    w1, w2 = two.witnesses
    return checked(MSD, formula, None, [w1, w2], n_approx(), "tssat_napprox")


def _oracle_fallback(formula: Formula, cap: int) -> SolveOutcome:
    out = oracle_optimize(MSD, formula, var_cap=cap)
    return SolveOutcome(
        MSD, out.value, out.witness, out.witness2, exact(), None, "exhaustive_fallback"
    )


ROUTES = {
    "bijunctive_classes": Route(lambda f, m, v, cap: msd_bijunctive(f), exact=True, poly=True),
    "horn_closure": Route(lambda f, m, v, cap: msd_horn(f), exact=True, poly=True),
    "horn_closure_dual": Route(lambda f, m, v, cap: msd_horn(f, dual=True), exact=True, poly=True),
    "affine_mindist": Route(lambda f, m, v, cap: msd_affine(f), exact=True, poly=False),
    "tssat_napprox": Route(lambda f, m, v, cap: msd_napprox(f, cap), exact=False, poly=True),
    "exhaustive_fallback": Route(
        lambda f, m, v, cap: _oracle_fallback(f, cap), exact=True, poly=False
    ),
}


def solve_msd(formula: Formula, mode: str = "auto", cap: int = ORACLE_VAR_CAP) -> SolveOutcome:
    """Dispatch the minimum-solution-distance classification."""
    return dispatch(MSD, ROUTES, "tssat_napprox", formula, None, mode, cap)
