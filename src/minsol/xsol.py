"""Next-solution solvers: the closest other model of a given one.

Exact polynomial routes for bijunctive and hitting-set-bounded
languages, the affine route through minimum code weight, the Horn route
as an oracle reduction to nearest-solution, and an n-approximation via
the second-model decision procedure.
"""

from __future__ import annotations

from . import gf2
from .clauses import affine_solve, cached_clauses, unit_propagate
from .decision import another_sat
from .dispatch import Route, checked, dispatch, via_dual
from .errors import (
    InternalConsistencyError,
    NoSecondModel,
    NotAModel,
    TooLarge,
    Unsatisfiable,
)
from .formulas import (
    ORACLE_VAR_CAP,
    XSOL,
    Assignment,
    Formula,
    hamming,
    oracle_optimize,
    satisfies,
)
from .outcome import SolveOutcome, exact, n_approx
from .preprocess import ReducedFormula
from .nsol import solve_nsol


def _best(candidates: list[Assignment], m: Assignment) -> Assignment:
    if not candidates:
        raise NoSecondModel("the given model is the only one")
    return min(candidates, key=lambda w: (hamming(m, w), w.bits))


def xsol_bijunctive(formula: Formula, m: Assignment) -> SolveOutcome:
    """Per-variable flip with forced repairs along binary constraints."""
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    propagated = unit_propagate(cached_clauses(formula, "bijunctive"))
    if propagated is None:
        raise InternalConsistencyError("model exists but unit propagation failed")
    assign, residual = propagated
    candidates: list[Assignment] = []
    free = [v for v in range(1, n + 1) if v not in assign]
    for x in free:
        bits = list(m.bits)
        flipped = {x}
        bits[x - 1] ^= 1
        ok = True
        while True:
            falsified = None
            for clause in residual:
                if not any((l > 0) == bool(bits[abs(l) - 1]) for l in clause):
                    falsified = clause
                    break
            if falsified is None:
                break
            unmarked = [abs(l) for l in falsified if abs(l) not in flipped]
            if not unmarked:
                ok = False
                break
            y = min(unmarked)
            bits[y - 1] ^= 1
            flipped.add(y)
        if ok:
            candidates.append(Assignment(tuple(bits)))
    return checked(XSOL, formula, m, [_best(candidates, m)], exact(), "bijunctive_flip")


def xsol_ihsb(formula: Formula, m: Assignment, width: int, dual: bool = False) -> SolveOutcome:
    """Flip one variable and close along implications, upward or downward."""
    if dual:
        return via_dual(xsol_ihsb, formula, m, width)
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    propagated = unit_propagate(cached_clauses(formula, "ihsb_pos", width))
    if propagated is None:
        raise InternalConsistencyError("model exists but unit propagation failed")
    assign, residual = propagated
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    ors: list[list[int]] = []
    for clause in residual:
        pos = sorted(l for l in clause if l > 0)
        neg = sorted(-l for l in clause if l < 0)
        if not neg:
            ors.append(pos)
        elif len(neg) == 1 and len(pos) == 1:
            forward.setdefault(neg[0], []).append(pos[0])
            backward.setdefault(pos[0], []).append(neg[0])
        else:
            raise InternalConsistencyError("hitting-set residual clause out of shape")
    candidates: list[Assignment] = []
    free = [v for v in range(1, n + 1) if v not in assign]
    for x in free:
        bits = list(m.bits)
        if m.value(x) == 0:
            stack = [x]
            bits[x - 1] = 1
            while stack:
                u = stack.pop()
                for v in forward.get(u, ()):
                    if bits[v - 1] == 0:
                        bits[v - 1] = 1
                        stack.append(v)
        else:
            stack = [x]
            bits[x - 1] = 0
            while stack:
                u = stack.pop()
                for v in backward.get(u, ()):
                    if bits[v - 1] == 1:
                        bits[v - 1] = 0
                        stack.append(v)
        cand = Assignment(tuple(bits))
        if satisfies(formula, cand):
            candidates.append(cand)
    return checked(XSOL, formula, m, [_best(candidates, m)], exact(), "ihsb_flip")


def xsol_affine(formula: Formula, m: Assignment, cap: int = gf2.ENUM_CAP_BITS) -> SolveOutcome:
    """Minimum nonzero weight of the homogeneous space, added onto m."""
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    _, basis = affine_solve(formula)
    if len(basis) > cap:
        raise TooLarge(f"solution space dimension {len(basis)} exceeds cap {cap}")
    found = gf2.min_weight_nonzero(basis, n)
    if found is None:
        raise NoSecondModel("the affine solution space is a single point")
    weight, vector = found
    witness = Assignment(gf2.vector_to_bits(gf2.vector_from_bits(m.bits) ^ vector, n))
    out = checked(XSOL, formula, m, [witness], exact(), "affine_mindist")
    if out.value != weight:
        raise InternalConsistencyError("affine witness does not realize the weight")
    return out


def xsol_horn_turing(
    formula: Formula,
    m: Assignment,
    mode: str = "auto",
    cap: int = ORACLE_VAR_CAP,
    dual: bool = False,
) -> SolveOutcome:
    """Per-variable pinning reduction to nearest-solution oracle calls.

    Each call pins one variable opposite to m; at desk scale the calls are
    answered exactly, so the route is exact and tagged that way.
    """
    if dual:
        return via_dual(xsol_horn_turing, formula, m, mode, cap)
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    sub_mode = "exact" if n <= cap else "auto"
    results: list[SolveOutcome] = []
    for x in range(1, n + 1):
        pinned = ReducedFormula(formula, {x: 1 - m.value(x)}).pinned()
        try:
            results.append(solve_nsol(pinned, m, sub_mode, cap))
        except Unsatisfiable:
            continue
    if not results:
        raise NoSecondModel("every single-variable pin is unsatisfiable")
    best = min(results, key=lambda o: (o.value, o.witness.bits))
    guarantee = exact() if all(o.guarantee.kind == "exact" for o in results) else n_approx()
    return checked(XSOL, formula, m, [best.witness], guarantee, "horn_turing")


def xsol_anothersat_napprox(
    formula: Formula, m: Assignment, cap: int = ORACLE_VAR_CAP
) -> SolveOutcome:
    other = another_sat(formula, m, cap)
    if other is None:
        raise NoSecondModel("the given model is the only one")
    return checked(XSOL, formula, m, [other], n_approx(), "anothersat_napprox")


def _oracle_fallback(formula: Formula, m: Assignment, cap: int) -> SolveOutcome:
    out = oracle_optimize(XSOL, formula, m, var_cap=cap)
    return SolveOutcome(XSOL, out.value, out.witness, None, exact(), None, "exhaustive_fallback")


ROUTES = {
    "bijunctive_flip": Route(lambda f, m, v, cap: xsol_bijunctive(f, m), exact=True, poly=True),
    "ihsb_flip": Route(lambda f, m, v, cap: xsol_ihsb(f, m, v.param), exact=True, poly=True),
    "ihsb_flip_dual": Route(
        lambda f, m, v, cap: xsol_ihsb(f, m, v.param, dual=True), exact=True, poly=True
    ),
    "affine_mindist": Route(lambda f, m, v, cap: xsol_affine(f, m), exact=True, poly=False),
    "horn_turing": Route(
        lambda f, m, v, cap: xsol_horn_turing(f, m, cap=cap), exact=False, poly=False
    ),
    "horn_turing_dual": Route(
        lambda f, m, v, cap: xsol_horn_turing(f, m, cap=cap, dual=True), exact=False, poly=False
    ),
    "anothersat_napprox": Route(
        lambda f, m, v, cap: xsol_anothersat_napprox(f, m, cap), exact=False, poly=True
    ),
    "exhaustive_fallback": Route(
        lambda f, m, v, cap: _oracle_fallback(f, m, cap), exact=True, poly=False
    ),
}


def solve_xsol(
    formula: Formula, m: Assignment, mode: str = "auto", cap: int = ORACLE_VAR_CAP
) -> SolveOutcome:
    """Dispatch the next-solution classification on the unit-absorbed residual."""
    return dispatch(XSOL, ROUTES, "anothersat_napprox", formula, m, mode, cap)
