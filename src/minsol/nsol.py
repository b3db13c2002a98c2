"""Nearest-solution solvers.

Exact routes for 2affine and monotone languages, LP-rounding
approximations for the bijunctive and hitting-set classes, the
feasibility n-approximation, an exact affine route at desk scale, and a
capped exhaustive fallback.  `solve_nsol` absorbs unit atoms, classifies
the residual, and dispatches per the nearest-solution classification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import gf2
from .clauses import affine_solve, cached_clauses, twosat_model, unit_propagate
from .decision import sat_solve
from .dispatch import Route, checked, dispatch, via_dual
from .errors import (
    InternalConsistencyError,
    Unsatisfiable,
)
from .formulas import (
    NSOL,
    ORACLE_VAR_CAP,
    Assignment,
    Formula,
    oracle_optimize,
    satisfies,
)
from .flow import INF, FlowNetwork
from .lp import GE, LE, LinearConstraint, LpProblem, lp_solve
from .outcome import SolveOutcome, exact, n_approx, ratio

HALF = Fraction(1, 2)


def _propagated(
    formula: Formula, clauses: tuple[frozenset[int], ...]
) -> tuple[dict[int, int], list[frozenset[int]], list[int]]:
    """Forced values, residual clauses and the free variables, ascending."""
    propagated = unit_propagate(clauses)
    if propagated is None:
        raise Unsatisfiable("unit propagation conflict")
    assign, residual = propagated
    return assign, residual, [v for v in range(1, formula.var_count + 1) if v not in assign]


def _completed(n: int, assign: dict[int, int], value: Callable[[int], int]) -> Assignment:
    """The forced values in `assign`, and `value(v)` for every free variable."""
    return Assignment(tuple(assign[v] if v in assign else value(v) for v in range(1, n + 1)))


# --- exact routes ---------------------------------------------------------


def nsol_2affine(formula: Formula, m: Assignment) -> SolveOutcome:
    """Exact nearest solution for parity-of-two constraint systems.

    Unary/binary parity equations link variables into components; a
    component no constant fixes admits exactly two colorings, and its
    indicator is one vector of the affine solution basis.  These vectors
    are pairwise disjoint, so each component flips on its own when that
    brings it closer to m; on a tie its smallest variable ends up 0.
    """
    formula.check_length(m)
    n = formula.var_count
    solved = affine_solve(formula)
    if solved is None:
        raise Unsatisfiable("parity constraints conflict")
    code, basis = solved
    target = m.code()
    covered = 0
    for component in basis:
        if covered & component:
            raise InternalConsistencyError("2affine route got overlapping components")
        covered |= component
        distance = ((code ^ target) & component).bit_count()
        size = component.bit_count()
        lead = (code >> (component.bit_length() - 1)) & 1  # the smallest variable
        if 2 * distance > size or (2 * distance == size and lead):
            code ^= component
    return checked(NSOL, formula, m, [Assignment.from_code(code, n)], exact(), "2affine_exact")


def nsol_monotone(formula: Formula, m: Assignment) -> SolveOutcome:
    """Exact nearest solution for implication/unit systems via minimum cut."""
    formula.check_length(m)
    n = formula.var_count
    assign, residual, free = _propagated(formula, cached_clauses(formula, "monotone"))
    index = {v: i for i, v in enumerate(free)}
    net = FlowNetwork(len(free) + 2)
    source, sink = len(free), len(free) + 1
    for v in free:
        if m.value(v) == 1:
            net.add_edge(source, index[v], 1)
        else:
            net.add_edge(index[v], sink, 1)
    for clause in residual:
        pos = [l for l in clause if l > 0]
        neg = [-l for l in clause if l < 0]
        if len(pos) != 1 or len(neg) != 1:
            raise InternalConsistencyError("monotone route got a non-implication clause")
        # premise -> conclusion arc may not cross the cut source-to-sink
        net.add_edge(index[neg[0]], index[pos[0]], INF)
    net.max_flow(source, sink)
    ones = net.source_side(source)
    witness = _completed(n, assign, lambda v: 1 if index[v] in ones else 0)
    return checked(NSOL, formula, m, [witness], exact(), "monotone_mincut")


def nsol_affine_exact(formula: Formula, m: Assignment) -> SolveOutcome:
    """Exact affine route: enumerate the solution coset around m."""
    formula.check_length(m)
    n = formula.var_count
    solved = affine_solve(formula)
    if solved is None:
        raise Unsatisfiable("affine system inconsistent")
    particular, basis = solved
    _, message = gf2.nearest_codeword(basis, n, m.code() ^ particular)
    span = particular
    for i, row in enumerate(basis):
        if (message >> i) & 1:
            span ^= row
    witness = Assignment.from_code(span, n)
    return checked(NSOL, formula, m, [witness], exact(), "affine_exact")


# --- approximation routes ----------------------------------------------------


def _distance_objective(m: Assignment, free: list[int]) -> tuple[dict[int, int], int]:
    """c(m') = sum over free vars of |m'(v) - m(v)| as coeffs + constant."""
    coeffs: dict[int, int] = {}
    constant = 0
    for i, v in enumerate(free):
        if m.value(v) == 1:
            coeffs[i] = -1
            constant += 1
        else:
            coeffs[i] = 1
    return coeffs, constant


def nsol_bijunctive_2approx(formula: Formula, m: Assignment) -> SolveOutcome:
    """Half-integral LP rounding for two-variable constraints, factor 2.

    Integral LP values are final; the half-valued variables induce a
    sub-2-SAT instance that is completed by a deterministic 2-SAT model,
    which preserves feasibility and at most doubles each half cost.
    """
    formula.check_length(m)
    n = formula.var_count
    clauses = cached_clauses(formula, "bijunctive")
    if twosat_model(n, clauses) is None:
        raise Unsatisfiable("no model (2-SAT check)")
    if satisfies(formula, m):
        return checked(NSOL, formula, m, [m], ratio(2), "bijunctive_2approx")
    assign, residual, free = _propagated(formula, clauses)
    index = {v: i for i, v in enumerate(free)}
    cons = []
    for clause in residual:
        lits = sorted(clause, key=abs)
        if len(lits) != 2:
            raise InternalConsistencyError("bijunctive residual clause is not binary")
        a, b = lits
        ia, ib = index[abs(a)], index[abs(b)]
        if a > 0 and b > 0:
            cons.append(LinearConstraint.of({ia: 1, ib: 1}, GE, 1))
        elif a < 0 and b < 0:
            cons.append(LinearConstraint.of({ia: 1, ib: 1}, LE, 1))
        elif a < 0 and b > 0:
            cons.append(LinearConstraint.of({ia: 1, ib: -1}, LE, 0))
        else:
            cons.append(LinearConstraint.of({ib: 1, ia: -1}, LE, 0))
    coeffs, constant = _distance_objective(m, free)
    solved = lp_solve(LpProblem.minimize(len(free), coeffs, cons, constant))
    if solved is None:
        raise InternalConsistencyError("LP infeasible on a satisfiable 2-SAT system")
    _, point = solved
    halves = {free[i] for i, x in enumerate(point) if 0 < x < 1}
    for v in halves:
        if point[index[v]] != HALF:
            raise InternalConsistencyError("LP vertex is not half-integral")
    sub = [c for c in residual if all(abs(l) in halves for l in c)]
    model = twosat_model(n, sub)
    if model is None:
        raise InternalConsistencyError("half-variable 2-SAT residue unsatisfiable")
    witness = _completed(
        n, assign, lambda v: model[v] if v in halves else int(point[index[v]] == 1)
    )
    return checked(NSOL, formula, m, [witness], ratio(2), "bijunctive_2approx")


def nsol_ihsb_rounding(
    formula: Formula, m: Assignment, width: int, dual: bool = False
) -> SolveOutcome:
    """LP rounding at threshold 1/width for hitting-set-bounded languages."""
    if dual:
        return via_dual(nsol_ihsb_rounding, formula, m, width)
    formula.check_length(m)
    n = formula.var_count
    assign, residual, free = _propagated(formula, cached_clauses(formula, "ihsb_pos", width))
    index = {v: i for i, v in enumerate(free)}
    cons = []
    for clause in residual:
        pos = [l for l in clause if l > 0]
        neg = [l for l in clause if l < 0]
        if not neg:
            cons.append(LinearConstraint.of({index[v]: 1 for v in pos}, GE, 1))
        elif len(pos) == 1 and len(neg) == 1:
            cons.append(
                LinearConstraint.of({index[-neg[0]]: 1, index[pos[0]]: -1}, LE, 0)
            )
        else:
            raise InternalConsistencyError("hitting-set residual clause out of shape")
    coeffs, constant = _distance_objective(m, free)
    solved = lp_solve(LpProblem.minimize(len(free), coeffs, cons, constant))
    if solved is None:
        raise Unsatisfiable("LP infeasible, formula has no model")
    _, point = solved
    threshold = Fraction(1, width)
    witness = _completed(n, assign, lambda v: int(point[index[v]] >= threshold))
    return checked(NSOL, formula, m, [witness], ratio(width), "ihsb_rounding")


def nsol_feasible_napprox(formula: Formula, m: Assignment, cap: int = ORACLE_VAR_CAP) -> SolveOutcome:
    """Return m when it satisfies the formula, else any model (factor n)."""
    formula.check_length(m)
    if satisfies(formula, m):
        return checked(NSOL, formula, m, [m], exact(), "feasible_napprox")
    model = sat_solve(formula, cap)
    if model is None:
        raise Unsatisfiable("formula has no model")
    return checked(NSOL, formula, m, [model], n_approx(), "feasible_napprox")


def _oracle_fallback(formula: Formula, m: Assignment, cap: int) -> SolveOutcome:
    out = oracle_optimize(NSOL, formula, m, var_cap=cap)
    return SolveOutcome(NSOL, out.value, out.witness, None, exact(), None, "exhaustive_fallback")


# --- dispatcher ---------------------------------------------------------------

ROUTES = {
    "2affine_exact": Route(lambda f, m, v, cap: nsol_2affine(f, m), exact=True, poly=True),
    "monotone_mincut": Route(lambda f, m, v, cap: nsol_monotone(f, m), exact=True, poly=True),
    "affine_exact": Route(lambda f, m, v, cap: nsol_affine_exact(f, m), exact=True, poly=False),
    "bijunctive_2approx": Route(
        lambda f, m, v, cap: nsol_bijunctive_2approx(f, m), exact=False, poly=True
    ),
    "ihsb_rounding": Route(
        lambda f, m, v, cap: nsol_ihsb_rounding(f, m, v.param), exact=False, poly=True
    ),
    "ihsb_rounding_dual": Route(
        lambda f, m, v, cap: nsol_ihsb_rounding(f, m, v.param, dual=True), exact=False, poly=True
    ),
    "feasible_napprox": Route(
        lambda f, m, v, cap: nsol_feasible_napprox(f, m, cap), exact=False, poly=True
    ),
    "exhaustive_fallback": Route(
        lambda f, m, v, cap: _oracle_fallback(f, m, cap), exact=True, poly=False
    ),
}


def solve_nsol(
    formula: Formula, m: Assignment, mode: str = "auto", cap: int = ORACLE_VAR_CAP
) -> SolveOutcome:
    """Classify (after unit absorption) and dispatch the strongest route.

    Modes: auto picks the best guarantee the classification permits;
    exact forces oracle enumeration for classes without exact routes;
    approx never exceeds polynomial time and refuses where impossible.
    """
    return dispatch(NSOL, ROUTES, "feasible_napprox", formula, m, mode, cap)
