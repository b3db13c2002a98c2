"""The one dispatcher behind `solve_nsol`, `solve_xsol` and `solve_msd`.

Each problem module keeps a route table keyed by verdict tag.  An entry
says how to call the route and two facts about it: whether its answer is
exact and whether it runs in polynomial time.  The mode policy is written
once, from those facts: `exact` swaps a route that is not exact for the
problem's capped exhaustive fallback, and `approx` swaps one that is not
polynomial for the problem's n-approximation, except that the capped
exhaustive fallback itself refuses in `approx` mode.

Dual classes have no routes of their own: a verdict tag `X_dual` runs
route `X` on the dual formula through `via_dual`, which complements the
answer back, unless the mode swapped the route out.

`checked` is the one place where witnesses are tested against a formula
and turned into an outcome; routes, the dispatcher and the CLI all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InternalConsistencyError, NoPolyAlgorithm, NotAModel
from .formulas import MSD, NSOL, XSOL, Assignment, Formula, dualize_formula, hamming, satisfies
from .outcome import Guarantee, SolveOutcome, exact
from .postlattice import Verdict, verdict
from .preprocess import absorb_units

MODES = ("auto", "exact", "approx")
EXHAUSTIVE = "exhaustive_fallback"


def checked(
    problem: str,
    formula: Formula,
    m: Assignment | None,
    witnesses: Sequence[Assignment],
    guarantee: Guarantee,
    method: str,
    vdict: Verdict | None = None,
) -> SolveOutcome:
    """The outcome realized by `witnesses`, once they are checked to answer
    the problem: models of `formula`, an XSOL witness other than `m`, two
    distinct MSD witnesses (put in bitstring order).  The value is the
    distance the witnesses realize; at the trivial lower bound (NSOL 0,
    XSOL and MSD 1) it is optimal, so the guarantee becomes exact."""
    if problem == XSOL and witnesses[0] == m:
        raise InternalConsistencyError(f"{method} returned the input assignment")
    if problem == MSD and witnesses[0] == witnesses[1]:
        raise InternalConsistencyError(f"{method} produced identical witnesses")
    if not all(satisfies(formula, w) for w in witnesses):
        raise InternalConsistencyError(f"{method} produced a non-model witness")
    if problem == MSD:
        w1, w2 = sorted(witnesses, key=lambda w: w.bits)
        value = hamming(w1, w2)
    else:
        w1, w2 = witnesses[0], None
        value = hamming(m, w1)
    if value == (0 if problem == NSOL else 1):
        guarantee = exact()
    return SolveOutcome(problem, value, w1, w2, guarantee, vdict, method)


def via_dual(
    route: Callable[..., SolveOutcome], formula: Formula, m: Assignment | None, *args
) -> SolveOutcome:
    """Run `route` on the dual formula and complement its answer back.

    Models of the dual are the complements of the models, so distances and
    the inner guarantee carry over; the method gains a `_dual` suffix.
    """
    inner = route(dualize_formula(formula), None if m is None else m.complement(), *args)
    witnesses = [w.complement() for w in inner.witnesses()]
    return checked(inner.problem, formula, m, witnesses, inner.guarantee, inner.method + "_dual")


@dataclass(frozen=True)
class Route:
    """A route table entry; `call(formula, m, verdict)`.

    Calls name their route at call time (a lambda, not the function object),
    so a wrapper later bound to the module attribute sees every call.
    """

    call: Callable[[Formula, Assignment | None, Verdict], SolveOutcome]
    exact: bool
    poly: bool


def dispatch(
    problem: str,
    routes: dict[str, Route],
    napprox: str,
    formula: Formula,
    m: Assignment | None,
    mode: str,
) -> SolveOutcome:
    """Classify the unit-absorbed residual and run the route its verdict
    names, as the mode allows; the answer is re-checked on `formula`.
    `napprox` is the tag of the problem's n-approximation route."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if m is not None:
        formula.check_length(m)
    if problem == XSOL and not satisfies(formula, m):
        raise NotAModel("xsol needs a model as input")
    res = absorb_units(formula)
    vdict = verdict(res.effective_language(), problem)
    dual = vdict.algorithm_tag.endswith("_dual")
    route = routes[vdict.algorithm_tag.removesuffix("_dual")]
    if mode == "exact" and not route.exact:
        route, dual = routes[EXHAUSTIVE], False
    elif mode == "approx" and not route.poly:
        if vdict.algorithm_tag == EXHAUSTIVE:
            raise NoPolyAlgorithm("the residual language admits no polynomial-time approximation")
        route, dual = routes[napprox], False
    out = via_dual(route.call, res, m, vdict) if dual else route.call(res, m, vdict)
    return checked(problem, formula, m, out.witnesses(), out.guarantee, out.method, vdict)
