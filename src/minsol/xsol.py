"""Next-solution solvers: the closest other model of a given one.

The exact polynomial routes for bijunctive and hitting-set-bounded
languages flip one variable at a time and set every literal the flipped
value implies, through every binary clause (bijunctive) or through the
implications only (hitting-set): one bitset of the implication graph's
closure per flip.  The nearest candidate that is a model wins.  The
affine route goes through minimum code weight, the Horn route answers a
single flip of m when one is a model (distance 1 is optimal) and
otherwise is an oracle enumeration up to the variable cap and beyond it
one Horn probe per flip, reduced to nearest-solution only where the
probe neither conflicts nor sets every variable, and an n-approximation
uses the second-model decision procedure.
"""

from __future__ import annotations

from . import gf2
from .clauses import ClauseIndex, LitClause, affine_solve, clause_index
from .decision import another_sat
from .dispatch import Route, checked, dispatch
from .errors import (
    InternalConsistencyError,
    NoSecondModel,
    NotAModel,
)
from .formulas import (
    ORACLE_VAR_CAP,
    XSOL,
    Assignment,
    Formula,
    oracle_optimize,
    satisfies,
)
from .outcome import SolveOutcome, exact, n_approx
from .preprocess import pin
from .relations import Relation, tuple_code
from .nsol import solve_nsol


def _flip(
    formula: Formula, m: Assignment, forced: dict[int, int], index: ClauseIndex, method: str
) -> SolveOutcome:
    """Flip each unforced variable of m and set every literal the flipped
    literal reaches in the implication closure of `index`; answer with the
    nearest such candidate that is a model."""
    code = m.code()
    for c in sorted(index.flips(code, forced), key=lambda c: ((c ^ code).bit_count(), c)):
        w = Assignment.from_code(c, formula.var_count)
        if satisfies(formula, w):
            return checked(XSOL, formula, m, [w], exact(), method)
    raise NoSecondModel("the given model is the only one")


def xsol_bijunctive(formula: Formula, m: Assignment) -> SolveOutcome:
    """Per-variable flip, probed through the binary clauses."""
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    return _flip(formula, m, *clause_index(formula, "bijunctive").reduced, "bijunctive_flip")


def xsol_ihsb(formula: Formula, m: Assignment, width: int) -> SolveOutcome:
    """Per-variable flip, probed through the implications only: upward from
    a 0, downward from a 1."""
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    forced, residual = clause_index(formula, "ihsb_pos", width).reduced
    implications: list[LitClause] = []
    for clause in residual.clauses:
        neg = [l for l in clause if l < 0]
        if len(neg) == 1 and len(clause) == 2:
            implications.append(clause)
        elif neg:
            raise InternalConsistencyError("hitting-set residual clause out of shape")
    return _flip(formula, m, forced, ClauseIndex(implications, residual.n), "ihsb_flip")


def xsol_affine(formula: Formula, m: Assignment) -> SolveOutcome:
    """Minimum nonzero weight of the homogeneous space, added onto m."""
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    _, basis = affine_solve(formula)
    found = gf2.min_weight_nonzero(basis, n)
    if found is None:
        raise NoSecondModel("the affine solution space is a single point")
    weight, vector = found
    witness = Assignment.from_code(m.code() ^ vector, n)
    out = checked(XSOL, formula, m, [witness], exact(), "affine_mindist")
    if out.value != weight:
        raise InternalConsistencyError("affine witness does not realize the weight")
    return out


def xsol_horn_turing(formula: Formula, m: Assignment) -> SolveOutcome:
    """Exact at distance 1: the smallest single flip of m that is a model,
    since no other model is nearer.  Otherwise exact by one enumeration of
    the models up to `ORACLE_VAR_CAP` variables; beyond, one Horn probe per
    flipped variable: a conflict rules the flip out, a probe that sets all
    n variables is its one model, and any other flip is pinned and solved
    by nearest-solution in `auto` mode.  The answer is exact when every
    pinned call answered exactly, n-approximate otherwise.
    """
    if not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    n = formula.var_count
    # m is a model, so a flip is one iff the atoms that mention the flipped variable hold
    touching: dict[int, list[tuple[Relation, tuple[int, ...]]]] = {}
    for rel, (_, vs) in zip(formula.bound, formula.atoms):
        for v in set(vs):
            touching.setdefault(v, []).append((rel, vs))
    flips = [m.bits[:i] + (1 - m.bits[i],) + m.bits[i + 1 :] for i in range(n)]
    neighbours = [
        w
        for v, w in enumerate(flips, 1)
        if all(r.contains(tuple_code([w[u - 1] for u in vs])) for r, vs in touching.get(v, ()))
    ]
    if neighbours:
        return checked(XSOL, formula, m, [Assignment(min(neighbours))], exact(), "horn_turing")
    if n <= ORACLE_VAR_CAP:
        out = oracle_optimize(XSOL, formula, m)
        return checked(XSOL, formula, m, [out.witness], exact(), "horn_turing")
    index = clause_index(formula, "horn")
    results: list[SolveOutcome] = []
    for x in range(1, n + 1):
        forced = index.probe(-x if m.value(x) else x)
        if forced is not None and len(forced) == n:  # the one model with x flipped
            w = Assignment(tuple(int(v in forced) for v in range(1, n + 1)))
            results.append(SolveOutcome(XSOL, (w.code() ^ m.code()).bit_count(), w))
        elif forced is not None:  # None: no model has x flipped
            results.append(solve_nsol(pin(formula, {x: 1 - m.value(x)}), m, "auto"))
    if not results:
        raise NoSecondModel("every single-variable pin is unsatisfiable")
    best = min(results, key=lambda o: (o.value, o.witness.bits))
    guarantee = exact() if all(o.guarantee.kind == "exact" for o in results) else n_approx()
    return checked(XSOL, formula, m, [best.witness], guarantee, "horn_turing")


def xsol_anothersat_napprox(formula: Formula, m: Assignment) -> SolveOutcome:
    other = another_sat(formula, m)
    if other is None:
        raise NoSecondModel("the given model is the only one")
    return checked(XSOL, formula, m, [other], n_approx(), "anothersat_napprox")


def _oracle_fallback(formula: Formula, m: Assignment) -> SolveOutcome:
    out = oracle_optimize(XSOL, formula, m)
    return SolveOutcome(XSOL, out.value, out.witness, None, exact(), None, "exhaustive_fallback")


ROUTES = {
    "bijunctive_flip": Route(lambda f, m, v: xsol_bijunctive(f, m), exact=True, poly=True),
    "ihsb_flip": Route(lambda f, m, v: xsol_ihsb(f, m, v.param), exact=True, poly=True),
    "affine_mindist": Route(lambda f, m, v: xsol_affine(f, m), exact=True, poly=False),
    "horn_turing": Route(lambda f, m, v: xsol_horn_turing(f, m), exact=False, poly=False),
    "anothersat_napprox": Route(
        lambda f, m, v: xsol_anothersat_napprox(f, m), exact=False, poly=True
    ),
    "exhaustive_fallback": Route(lambda f, m, v: _oracle_fallback(f, m), exact=True, poly=False),
}


def solve_xsol(formula: Formula, m: Assignment, mode: str = "auto") -> SolveOutcome:
    """Dispatch the next-solution classification on the unit-absorbed residual."""
    return dispatch(XSOL, ROUTES, "anothersat_napprox", formula, m, mode)
