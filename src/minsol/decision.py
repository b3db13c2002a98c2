"""Decision procedures the optimization solvers lean on.

Every routine dispatches on the language's verdict tag, except that
`another_sat_below_n` first tests the co-clone label against iL2 and iD2.
Tractable classes get their constructive polynomial algorithm, everything
else falls back to model enumeration, which refuses with `TooLarge` beyond
`ORACLE_VAR_CAP` variables.  SAT under unit assumptions is SAT over the
language plus the constant relations t and f, whose SAT tag is never a
constant one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .clauses import affine_solve, clause_index, horn_model, twosat_model
from .errors import NotAModel
from .formulas import Assignment, Formula, enumerate_models, hamming, nearest_model, satisfies
from .postlattice import CoCloneLabel, classify, label_leq, verdict_for_label
from .relations import F_REL, T_REL, Language

_AFFINE, _BIJUNCTIVE, _HORN = CoCloneLabel("iL2"), CoCloneLabel("iD2"), CoCloneLabel("iE2")


@functools.lru_cache(maxsize=64)
def _label(formula: Formula, constants: bool = False) -> CoCloneLabel:
    """The label of the formula's language, plus t and f if `constants`;
    memoised for the n or n^2 probes of `another_sat` and
    `another_sat_below_n` (one formula at a time)."""
    lang = formula.effective_language()
    if constants:
        lang = Language(lang.relations + (("t", T_REL), ("f", F_REL)))
    return classify(lang)


def _tag(formula: Formula, problem: str, constants: bool = False) -> str:
    return verdict_for_label(_label(formula, constants), problem).algorithm_tag


def sat_solve(formula: Formula, assumptions: dict[int, int] | None = None) -> Assignment | None:
    """A model or None, via the engine of the language's SAT tag; unit
    `assumptions` read the tag of the language plus t and f."""
    n = formula.var_count
    tag = _tag(formula, "SAT", bool(assumptions))
    if tag in ("const_zero", "const_one"):
        return Assignment((int(tag == "const_one"),) * n)
    if tag in ("horn_prop", "dualhorn_prop"):
        shape, default = ("horn", 0) if tag == "horn_prop" else ("dual_horn", 1)
        return horn_model(clause_index(formula, shape), assumptions, default)
    if tag == "twosat":
        return twosat_model(clause_index(formula, "bijunctive"), assumptions)
    if tag == "affine_gauss":
        solved = affine_solve(formula, assumptions)
        return None if solved is None else Assignment.from_code(solved[0], n)
    for m in enumerate_models(formula, cap=None if assumptions else 1).assignments:
        if all(m.value(v) == b for v, b in (assumptions or {}).items()):
            return m
    return None


def another_sat(formula: Formula, m: Assignment) -> Assignment | None:
    """Some model different from m, or None iff m is the unique model."""
    if not satisfies(formula, m):
        raise NotAModel("another_sat needs a satisfying assignment")
    tag = _tag(formula, "ANOTHERSAT")
    if tag == "flip_resolve":
        best: Assignment | None = None
        for v in range(1, formula.var_count + 1):
            cand = sat_solve(formula, {v: 1 - m.value(v)})
            if cand is None:
                continue
            if best is None or (hamming(m, cand), cand.bits) < (hamming(m, best), best.bits):
                best = cand
        return best
    if tag == "complement":
        return m.complement()
    if tag == "both_valid":
        zero = Assignment((0,) * formula.var_count)
        return zero if m != zero else Assignment((1,) * formula.var_count)
    for cand in enumerate_models(formula, cap=2).assignments:
        if cand != m:
            return cand
    return None


@dataclass(frozen=True)
class TwoModels:
    """TSSAT outcome: satisfiable? two models? plus the witnesses found."""

    satisfiable: bool
    witnesses: tuple[Assignment, Assignment] | None

    @property
    def has_two(self) -> bool:
        return self.witnesses is not None


def tssat(formula: Formula) -> TwoModels:
    """Does the formula have two distinct models?"""
    if _tag(formula, "TSSAT") == "sat_then_anothersat":
        first = sat_solve(formula)
        if first is None:
            return TwoModels(False, None)
        second = another_sat(formula, first)
        if second is None:
            return TwoModels(True, None)
        return TwoModels(True, (first, second))
    models = enumerate_models(formula, cap=2).assignments
    if not models:
        return TwoModels(False, None)
    if len(models) == 1:
        return TwoModels(True, None)
    return TwoModels(True, (models[0], models[1]))


def another_sat_below_n(formula: Formula, m: Assignment) -> bool:
    """Is there a model m' != m with hd(m, m') < n (n = variable count)?

    The models of an affine formula are m plus its solution space V, so the
    answer is whether V holds a nonzero vector other than all ones.  For
    the other Schaefer classes a probe fixes one flipped and one agreeing
    variable, so a distance-n-only second model cannot fool it.  On 2-CNF
    a set of literals is consistent iff the union of their implication
    closures holds no complementary pair, so the bijunctive probes are
    bitset ORs over the clause index.  On Horn and dual-Horn clauses unit
    propagation is complete, so each pair is one propagation.  Any other
    language asks `nearest_model` for the nearest model other than m.
    """
    if not satisfies(formula, m):
        raise NotAModel("another_sat_below_n needs a satisfying assignment")
    n = formula.var_count
    if n == 1:
        return False  # any other model differs in the one variable
    label = _label(formula)
    if label_leq(label, _AFFINE):
        _, basis = affine_solve(formula)
        return len(basis) >= 2 or (len(basis) == 1 and basis[0] != (1 << n) - 1)
    if label_leq(label, _BIJUNCTIVE):
        forced, index = clause_index(formula, "bijunctive").reduced

        def consistent(lits: int) -> bool:
            return index.setting(0, lits) is not None

        # closure of each unforced variable kept at its value in m; a forced
        # variable keeps its value whatever is flipped
        keep = {v: index.reach(v if m.value(v) else -v) for v in range(1, n + 1) if v not in forced}
        for i in keep:
            flip = index.reach(-i if m.value(i) else i)
            if consistent(flip) and (
                len(keep) < n or any(consistent(flip | r) for j, r in keep.items() if j != i)
            ):
                return True
        return False
    if _tag(formula, "ANOTHERSAT") == "flip_resolve":
        index = clause_index(formula, "horn" if label_leq(label, _HORN) else "dual_horn")
        kept = [v if m.value(v) else -v for v in range(1, n + 1)]
        return any(
            index.probe(-a) is not None and any(index.probe(-a, b) is not None for b in kept if b != a)
            for a in kept
        )
    nearest = nearest_model(formula, m, other=True)
    return nearest is not None and nearest[0] < n
