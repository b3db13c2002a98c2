"""Decision procedures the optimization solvers lean on.

Every routine dispatches on the language's verdict tag, and on a
Schaefer language `another_sat` and `another_sat_below_n` pick their
engine by testing the co-clone label against the Schaefer classes.
Tractable classes get their constructive polynomial algorithm, everything
else falls back to model enumeration, which refuses with `TooLarge`
beyond `ORACLE_VAR_CAP` variables.  A flipped variable is never pinned
on a new formula: each engine answers it from one prepared structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clauses import affine_solve, clause_index, horn_model, twosat_model
from .errors import NotAModel
from .formulas import Assignment, Formula, enumerate_models, nearest_model, satisfies
from .postlattice import CoCloneLabel, classify, label_leq, verdict_for_label

_AFFINE, _BIJUNCTIVE, _HORN, _DUAL_HORN = map(CoCloneLabel, ("iL2", "iD2", "iE2", "iV2"))


def _label(formula: Formula) -> CoCloneLabel:
    return classify(formula.effective_language())


def _tag(formula: Formula, problem: str) -> str:
    return verdict_for_label(_label(formula), problem).algorithm_tag


def sat_solve(formula: Formula) -> Assignment | None:
    """A model or None, via the engine of the language's SAT tag."""
    n = formula.var_count
    tag = _tag(formula, "SAT")
    if tag in ("const_zero", "const_one"):
        return Assignment((int(tag == "const_one"),) * n)
    if tag in ("horn_prop", "dualhorn_prop"):
        shape, default = ("horn", 0) if tag == "horn_prop" else ("dual_horn", 1)
        return horn_model(clause_index(formula, shape), default=default)
    if tag == "twosat":
        return twosat_model(clause_index(formula, "bijunctive"))
    if tag == "affine_gauss":
        solved = affine_solve(formula)
        return None if solved is None else Assignment.from_code(solved[0], n)
    models = enumerate_models(formula, cap=1).assignments
    return models[0] if models else None


def another_sat(formula: Formula, m: Assignment) -> Assignment | None:
    """Some model different from m, or None iff m is the unique model.

    On a Schaefer language each variable of m gives at most one model
    with that variable flipped, and the nearest, then least, wins.  Below
    iE2 or iV2 it is the Horn or dual-Horn model under the flipped unit;
    below iD2 the nearest model with the flip, read off the closure
    bitsets; below iL2 the particular solution p of the parity equations
    if it already has the flip, else p plus the first basis vector that
    has the variable (none: every model agrees with m there).
    """
    if not satisfies(formula, m):
        raise NotAModel("another_sat needs a satisfying assignment")
    label = _label(formula)
    tag = verdict_for_label(label, "ANOTHERSAT").algorithm_tag
    if tag == "flip_resolve":
        n, code = formula.var_count, m.code()
        if label_leq(label, _HORN) or label_leq(label, _DUAL_HORN):
            shape, default = ("horn", 0) if label_leq(label, _HORN) else ("dual_horn", 1)
            index = clause_index(formula, shape)
            models = (horn_model(index, {v: 1 - m.value(v)}, default) for v in range(1, n + 1))
            candidates = [w.code() for w in models if w is not None]
        elif label_leq(label, _BIJUNCTIVE):
            forced, index = clause_index(formula, "bijunctive").reduced
            candidates = index.flips(code, forced)
        else:
            p, basis = affine_solve(formula)
            candidates = []
            for v in range(1, n + 1):
                bit = 1 << (n - v)
                if (p ^ code) & bit:
                    candidates.append(p)
                elif b := next((b for b in basis if b & bit), 0):
                    candidates.append(p ^ b)
        if not candidates:
            return None
        return Assignment.from_code(min(candidates, key=lambda c: ((c ^ code).bit_count(), c)), n)
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
    answer is whether V holds a nonzero vector other than all ones.  On
    2-CNF each flip's closure candidate is the nearest model with that
    flip, so some model other than m lies below n iff some candidate does.
    On Horn and dual-Horn clauses unit propagation is complete, so a probe
    that fixes one flipped and one agreeing variable is one propagation,
    and a distance-n-only second model cannot fool it.  Any other language
    asks `nearest_model` for the nearest model other than m.
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
        code = m.code()
        return any((c ^ code).bit_count() < n for c in index.flips(code, forced))
    if label_leq(label, _HORN) or label_leq(label, _DUAL_HORN):
        index = clause_index(formula, "horn" if label_leq(label, _HORN) else "dual_horn")
        kept = [v if m.value(v) else -v for v in range(1, n + 1)]
        return any(
            index.probe(-a) is not None and any(index.probe(-a, b) is not None for b in kept if b != a)
            for a in kept
        )
    nearest = nearest_model(formula, m, other=True)
    return nearest is not None and nearest[0] < n
