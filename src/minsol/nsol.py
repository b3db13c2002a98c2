"""Nearest-solution solvers.

Exact routes for 2affine and monotone languages (the latter by minimum
cut), LP-rounding approximations for the bijunctive class (a
half-integral LP optimum from one minimum cut on the doubled literal
network) and the hitting-set classes (the bounded simplex of `lp`), the
feasibility n-approximation, an exact affine route at desk scale, and a
capped exhaustive fallback.  `solve_nsol` absorbs unit atoms, classifies
the residual, and dispatches per the nearest-solution classification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from . import gf2
from .clauses import ClauseIndex, affine_solve, clause_index, twosat_model
from .decision import sat_solve
from .dispatch import Route, checked, dispatch
from .errors import (
    InternalConsistencyError,
    Unsatisfiable,
)
from .formulas import (
    NSOL,
    Assignment,
    Formula,
    oracle_optimize,
    satisfies,
)
from .flow import INF, FlowNetwork
from .lp import LpProblem, lp_solve
from .outcome import SolveOutcome, exact, n_approx, ratio


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


def _min_cut(targets: list[int], arcs: list[tuple[int, int]]) -> tuple[int, set[int]]:
    """Cheapest 0/1 labelling of nodes 0..len(targets)-1 by one minimum cut.

    A node pays 1 when its label differs from its target, and an arc
    (i, j) forbids i = 1 with j = 0.  Returns the cost and the nodes set to
    1: the source side of the cut, reachable from the source after the flow.
    """
    net = FlowNetwork(len(targets) + 2)
    source, sink = len(targets), len(targets) + 1
    for i, target in enumerate(targets):
        if target:
            net.add_edge(source, i, 1)
        else:
            net.add_edge(i, sink, 1)
    for i, j in arcs:
        net.add_edge(i, j, INF)
    cost = net.max_flow(source, sink)
    return cost, net.source_side(source)


def nsol_monotone(formula: Formula, m: Assignment) -> SolveOutcome:
    """Exact nearest solution for implication/unit systems via minimum cut."""
    formula.check_length(m)
    n = formula.var_count
    assign, residual = clause_index(formula, "monotone").reduced
    free = [v for v in range(1, n + 1) if v not in assign]
    index = {v: i for i, v in enumerate(free)}
    arcs = []
    for clause in residual.clauses:
        pos = [l for l in clause if l > 0]
        neg = [-l for l in clause if l < 0]
        if len(pos) != 1 or len(neg) != 1:
            raise InternalConsistencyError("monotone route got a non-implication clause")
        arcs.append((index[neg[0]], index[pos[0]]))  # premise -> conclusion
    _, ones = _min_cut([m.value(v) for v in free], arcs)
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


def half_integral_lp(
    free: list[int], clauses: Iterable[frozenset[int]], m: Assignment
) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimum of the LP relaxation of binary clauses over the `free`
    variables, min sum |x_v - m(v)|, and a half-integral optimal point.

    The doubled network of Hochbaum, Megiddo, Naor and Tamir (1993) has a
    node for each literal: p_v for v and z_v for -v, standing for x_v and
    1 - x_v.  A clause (a or b) gives the arcs -a -> b and -b -> a, and a
    literal node pays 1 when its label differs from m's value of that
    literal.  With x_v = (p_v + 1 - z_v) / 2 every closed labelling is
    LP-feasible at half its cost, and every LP point (p = x, z = 1 - x) is
    a fractional labelling at twice its cost; the labelling polytope is
    integral, so one minimum cut is an LP optimum.
    """
    k = len(free)
    index = {v: i for i, v in enumerate(free)}

    def node(lit: int) -> int:
        return index[lit] if lit > 0 else k + index[-lit]

    arcs = []
    for clause in clauses:
        if len(clause) != 2:
            raise InternalConsistencyError("bijunctive residual clause is not binary")
        a, b = clause
        arcs += [(node(-a), node(b)), (node(-b), node(a))]
    cut, ones = _min_cut([m.value(v) for v in free] + [1 - m.value(v) for v in free], arcs)
    point = {
        v: Fraction((index[v] in ones) + 1 - (k + index[v] in ones), 2) for v in free
    }
    value = sum((abs(x - m.value(v)) for v, x in point.items()), Fraction(0))
    if 2 * value != cut:
        raise InternalConsistencyError("min cut is not a half-integral LP optimum")
    return value, point


def _twosat_toward(m: Assignment, variables: set[int], index: ClauseIndex) -> dict[int, int]:
    """A model over `variables` of the satisfiable clauses of `index` that
    mention only `variables`, near m.

    Each unset variable in ascending order takes m's literal with its
    closure in those clauses or, if that conflicts with the literals set so
    far, its negation's closure, which cannot conflict: a consistent closure
    in 2-CNF leaves a subset of the clauses, so each step keeps them
    satisfiable.
    """
    sub = ClauseIndex((c for c in index.clauses if all(abs(l) in variables for l in c)), index.n)
    true = 0  # the bitset of the literals set so far
    for v in sorted(variables):
        if true & (sub.bit(v) | sub.bit(-v)):
            continue
        lit = v if m.value(v) else -v
        for t in (true | sub.reach(lit), true | sub.reach(-lit)):
            if sub.setting(0, t) is not None:
                true = t
                break
        else:
            raise InternalConsistencyError("half-variable 2-SAT residue unsatisfiable")
    return {v: int(bool(true & sub.bit(v))) for v in variables}


def nsol_bijunctive_2approx(formula: Formula, m: Assignment) -> SolveOutcome:
    """Half-integral LP rounding for two-variable constraints, factor 2.

    Integral LP values are final; the half-valued variables induce a
    sub-2-SAT instance, completed by a model that keeps m's value where it
    can.  That preserves feasibility and at most doubles each half cost.
    A model m is its own nearest solution.
    """
    formula.check_length(m)
    n = formula.var_count
    if twosat_model(clause_index(formula, "bijunctive")) is None:
        raise Unsatisfiable("no model (2-SAT check)")
    if satisfies(formula, m):
        return checked(NSOL, formula, m, [m], exact(), "bijunctive_2approx")
    assign, residual = clause_index(formula, "bijunctive").reduced
    free = [v for v in range(1, n + 1) if v not in assign]
    _, point = half_integral_lp(free, residual.clauses, m)
    halves = {v for v, x in point.items() if x.denominator == 2}
    model = _twosat_toward(m, halves, residual)
    witness = _completed(n, assign, lambda v: model[v] if v in halves else int(point[v]))
    return checked(NSOL, formula, m, [witness], ratio(2), "bijunctive_2approx")


def nsol_ihsb_rounding(formula: Formula, m: Assignment, width: int) -> SolveOutcome:
    """LP rounding at threshold 1/width for hitting-set-bounded languages.

    The residual after unit propagation is positive clauses of width at
    most `width` and implications, so its LP relaxation is what `lp_solve`
    takes.  Rounding back to m (value 0) is optimal.
    """
    formula.check_length(m)
    n = formula.var_count
    assign, residual = clause_index(formula, "ihsb_pos", width).reduced
    free = [v for v in range(1, n + 1) if v not in assign]
    index = {v: i for i, v in enumerate(free)}
    constraints = tuple(
        (tuple(index[l] for l in c if l > 0), tuple(index[-l] for l in c if l < 0))
        for c in residual.clauses
    )
    objective = tuple(-1 if m.value(v) else 1 for v in free)
    _, point = lp_solve(LpProblem(len(free), constraints, objective))
    threshold = Fraction(1, width)
    witness = _completed(n, assign, lambda v: int(point[index[v]] >= threshold))
    guarantee = exact() if witness == m else ratio(width)
    return checked(NSOL, formula, m, [witness], guarantee, "ihsb_rounding")


def nsol_feasible_napprox(formula: Formula, m: Assignment) -> SolveOutcome:
    """Return m when it satisfies the formula, else any model (factor n)."""
    formula.check_length(m)
    if satisfies(formula, m):
        return checked(NSOL, formula, m, [m], exact(), "feasible_napprox")
    model = sat_solve(formula)
    if model is None:
        raise Unsatisfiable("formula has no model")
    return checked(NSOL, formula, m, [model], n_approx(), "feasible_napprox")


def _oracle_fallback(formula: Formula, m: Assignment) -> SolveOutcome:
    out = oracle_optimize(NSOL, formula, m)
    return SolveOutcome(NSOL, out.value, out.witness, None, exact(), None, "exhaustive_fallback")


# --- dispatcher ---------------------------------------------------------------

ROUTES = {
    "2affine_exact": Route(lambda f, m, v: nsol_2affine(f, m), exact=True, poly=True),
    "monotone_mincut": Route(lambda f, m, v: nsol_monotone(f, m), exact=True, poly=True),
    "affine_exact": Route(lambda f, m, v: nsol_affine_exact(f, m), exact=True, poly=False),
    "bijunctive_2approx": Route(
        lambda f, m, v: nsol_bijunctive_2approx(f, m), exact=False, poly=True
    ),
    "ihsb_rounding": Route(
        lambda f, m, v: nsol_ihsb_rounding(f, m, v.param), exact=False, poly=True
    ),
    "feasible_napprox": Route(lambda f, m, v: nsol_feasible_napprox(f, m), exact=False, poly=True),
    "exhaustive_fallback": Route(lambda f, m, v: _oracle_fallback(f, m), exact=True, poly=False),
}


def solve_nsol(formula: Formula, m: Assignment, mode: str = "auto") -> SolveOutcome:
    """Classify (after unit absorption) and dispatch the strongest route.

    Modes: auto picks the best guarantee the classification permits;
    exact forces oracle enumeration for classes without exact routes;
    approx never exceeds polynomial time and refuses where impossible.
    """
    return dispatch(NSOL, ROUTES, "feasible_napprox", formula, m, mode)
