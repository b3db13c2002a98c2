"""Minimum-distance-between-models solvers.

The bijunctive route closes binary clauses under resolution and reads
the answer off literal equivalence classes; the Horn route adds
hyper-resolution with binary implications and excludes classes with
dependent variables.  Affine languages reduce to minimum code weight,
everything else gets the two-models n-approximation or the capped
exhaustive fallback.
"""

from __future__ import annotations

from collections import deque

from . import gf2
from .clauses import LitClause, affine_solve, cached_clauses, twosat_model
from .decision import tssat
from .dispatch import Route, checked, dispatch, via_dual
from .errors import (
    InternalConsistencyError,
    TooLarge,
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


class _ClosureState:
    """Clause set under unit resolution/subsumption plus added resolvents.

    Starts from the formula's clauses of the given shape with its units
    drained.  Tautologies (x or not-x) are seeded deliberately; unit
    processing deletes every clause mentioning the decided variable.  Step
    counters assert the structural bounds on closure work.
    """

    def __init__(self, formula: Formula, shape: str) -> None:
        self.n = n = formula.var_count
        self.clauses: set[LitClause] = set()
        self.units: dict[int, int] = {}
        self.unit_queue: deque[int] = deque()
        self.fresh: deque[LitClause] = deque()
        self.unsatisfiable = False
        self.unit_steps = 0
        self.additions = 0
        for v in range(1, n + 1):
            self.add(frozenset({v, -v}))
        for c in cached_clauses(formula, shape):
            self.add(c)
        self.drain_units()

    def add(self, cl: LitClause) -> bool:
        if self.unsatisfiable or cl in self.clauses:
            return False
        if not cl:
            self.unsatisfiable = True
            return True
        if len(cl) == 1:
            (lit,) = cl
            v, b = abs(lit), int(lit > 0)
            if self.units.get(v, b) != b:
                self.unsatisfiable = True
                return True
            if v not in self.units:
                self.units[v] = b
                self.unit_queue.append(lit)
                return True
            return False
        self.clauses.add(cl)
        self.fresh.append(cl)
        self.additions += 1
        return True

    def drain_units(self) -> None:
        while self.unit_queue and not self.unsatisfiable:
            lit = self.unit_queue.popleft()
            self.unit_steps += 1
            if self.unit_steps > self.n + 1:
                raise InternalConsistencyError("unit closure exceeded its step bound")
            satisfied = [c for c in self.clauses if lit in c]
            shrink = [c for c in self.clauses if -lit in c]
            for c in satisfied:
                self.clauses.discard(c)
            for c in shrink:
                self.clauses.discard(c)
                self.add(c - {-lit})

    def alive_vars(self) -> list[int]:
        out = set()
        for c in self.clauses:
            out.update(abs(l) for l in c)
        return sorted(out)


def _bijunctive_closure(formula: Formula) -> _ClosureState:
    state = _ClosureState(formula, "bijunctive")
    while state.fresh and not state.unsatisfiable:
        cl = state.fresh.popleft()
        if cl not in state.clauses:
            continue
        for other in list(state.clauses):
            for lit in cl:
                if -lit in other:
                    state.add((cl - {lit}) | (other - {-lit}))
        state.drain_units()
    return state


def _horn_closure(formula: Formula) -> _ClosureState:
    n = formula.var_count
    state = _ClosureState(formula, "horn")
    max_additions = len(state.clauses) + 4 * n * n + 2 * n + 4
    changed = True
    while changed and not state.unsatisfiable:
        changed = False
        snapshot = list(state.clauses)
        alive = state.alive_vars()
        for cl in snapshot:
            if cl not in state.clauses:
                continue
            neg = [-l for l in cl if l < 0]
            pos = [l for l in cl if l > 0]
            if not neg or len(pos) > 1:
                continue
            if len(cl) == 2 and pos and pos[0] == neg[0]:
                continue  # tautologies are vacuous as main premises
            for x in alive:
                if all(frozenset({-x, y}) in state.clauses for y in neg):
                    if state.add(frozenset({-x}) | frozenset(pos)):
                        changed = True
        state.drain_units()
        if state.additions > max_additions:
            raise InternalConsistencyError("hyper-resolution exceeded its step bound")
    return state


def _equivalence_classes(
    items: list[int], clauses: set[LitClause]
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Classes of literals that imply each other in `clauses`: the class
    root of each item, and the members of each class in item order."""
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, x in enumerate(items):
        for y in items[i + 1 :]:
            if frozenset({-x, y}) in clauses and frozenset({-y, x}) in clauses:
                parent[find(y)] = find(x)
    root = {x: find(x) for x in items}
    classes: dict[int, list[int]] = {}
    for x in items:
        classes.setdefault(root[x], []).append(x)
    return root, classes


def _unit_bits(state: _ClosureState, n: int) -> list[int]:
    """Forced values, 0 for every variable the units leave open."""
    return [state.units.get(v, 0) for v in range(1, n + 1)]


def msd_bijunctive(formula: Formula) -> SolveOutcome:
    """Minimal literal-equivalence class after binary resolution closure."""
    n = formula.var_count
    state = _bijunctive_closure(formula)
    if state.unsatisfiable:
        raise Unsatisfiable("formula has no model")
    if not state.clauses:
        raise UniqueModel("all variables are forced")
    clauses = state.clauses
    lits = sorted({l for c in clauses for l in c}, key=lambda l: (abs(l), l < 0))
    root, classes = _equivalence_classes(lits, clauses)
    pivot_root = min(
        classes, key=lambda r: (len(classes[r]), sorted((abs(l), l < 0) for l in classes[r]))
    )
    pivot = set(classes[pivot_root])
    # direct arcs between classes; the closure made the graph transitive
    preds: set[int] = set()
    succs: set[int] = set()
    for c in clauses:
        if len(c) != 2:
            continue
        a, b = sorted(c, key=lambda l: (abs(l), l < 0))
        if a == -b:
            continue
        for x, y in ((a, b), (b, a)):
            # clause (x or y) is the implication (-x) -> y
            if root[-x] != root[y]:
                if -x in pivot:
                    succs.add(root[y])
                if y in pivot:
                    preds.add(root[-x])
    base = twosat_model(n, clauses)
    if base is None:
        raise InternalConsistencyError("closure satisfiable but 2-SAT failed")
    forced = _unit_bits(state, n)

    def literal_rule(l: int, pivot_value: int) -> int | None:
        if root[l] == pivot_root:
            return pivot_value
        if root[l] in preds:
            return 0
        if root[l] in succs:
            return 1
        return None

    def build(pivot_value: int) -> Assignment:
        bits = list(forced)
        for v in {abs(l) for l in lits}:
            rp = literal_rule(v, pivot_value) if v in root else None
            rn = literal_rule(-v, pivot_value) if -v in root else None
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
    if out.value != len(pivot):
        raise InternalConsistencyError("pivot class size does not match the distance")
    return out


def msd_horn(formula: Formula, dual: bool = False) -> SolveOutcome:
    """Minimal variable class without dependent variables (Horn closure)."""
    if dual:
        return via_dual(msd_horn, formula, None)
    n = formula.var_count
    state = _horn_closure(formula)
    if state.unsatisfiable:
        raise Unsatisfiable("formula has no model")
    if not state.clauses:
        raise UniqueModel("all variables are forced")
    clauses = state.clauses
    vars_ = state.alive_vars()
    root, classes = _equivalence_classes(vars_, clauses)
    dependent: set[int] = set()
    for cl in clauses:
        pos = [l for l in cl if l > 0]
        neg = [-l for l in cl if l < 0]
        if len(pos) != 1 or not neg:
            continue
        z = pos[0]
        if z in neg:
            continue
        ys = [y for y in neg if y != z]
        if not ys:
            continue
        if all(frozenset({-z, y}) in clauses for y in ys) and all(
            root[z] != root[y] for y in ys
        ):
            dependent.add(root[z])
    eligible = [r for r in classes if r not in dependent]
    if not eligible:
        raise InternalConsistencyError("no class without dependent variables")
    pivot_root = min(eligible, key=lambda r: (len(classes[r]), sorted(classes[r])))
    pivot = set(classes[pivot_root])
    forced = _unit_bits(state, n)
    implied = {
        y
        for y in vars_
        if y not in pivot and any(frozenset({-x, y}) in clauses for x in pivot)
    }

    def build(pivot_value: int) -> Assignment:
        bits = list(forced)
        for v in vars_:
            if v in pivot:
                bits[v - 1] = pivot_value
            elif v in implied:
                bits[v - 1] = 1
            else:
                bits[v - 1] = 0
        return Assignment(tuple(bits))

    w1, w2 = build(0), build(1)
    out = checked(MSD, formula, None, [w1, w2], exact(), "horn_closure")
    if out.value != len(pivot):
        raise InternalConsistencyError("pivot class size does not match the distance")
    return out


def msd_affine(formula: Formula, cap: int = gf2.ENUM_CAP_BITS) -> SolveOutcome:
    """Minimum nonzero weight of the homogeneous solution space."""
    n = formula.var_count
    solved = affine_solve(formula)
    if solved is None:
        raise Unsatisfiable("affine system inconsistent")
    particular, basis = solved
    if len(basis) > cap:
        raise TooLarge(f"solution space dimension {len(basis)} exceeds cap {cap}")
    found = gf2.min_weight_nonzero(basis, n)
    if found is None:
        raise UniqueModel("the affine solution space is a single point")
    weight, vector = found
    w1 = Assignment(gf2.vector_to_bits(particular, n))
    w2 = Assignment(gf2.vector_to_bits(particular ^ vector, n))
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
