"""Decision procedures the optimization solvers lean on.

Every routine dispatches on the language's verdict: tractable classes get
their constructive polynomial algorithm, everything else falls back to
model enumeration, which refuses with `TooLarge` beyond `ORACLE_VAR_CAP`
variables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .clauses import affine_solve, clause_index, horn_model, twosat_model
from .errors import NotAModel
from .formulas import Assignment, Formula, enumerate_models, hamming, model_codes, satisfies
from .gf2 import popcount
from .postlattice import verdict

SCHAEFER_FLAGS = ("bijunctive", "horn", "dual_horn", "affine")


@functools.lru_cache(maxsize=64)
def _language_flags(formula: Formula) -> frozenset[str]:
    """Flags of the formula's language, memoised for the n or n^2 probes of
    `another_sat` and `another_sat_below_n` (one formula at a time)."""
    return formula.effective_language().flags


def sat_solve(formula: Formula, assumptions: dict[int, int] | None = None) -> Assignment | None:
    """A model or None, via the strongest routine the class admits.

    Assumptions are extra unit constraints the model must meet; they keep
    the four Schaefer classes tractable, but not the 0-/1-valid shortcuts.
    Beyond those classes it falls back to model enumeration.
    """
    n = formula.var_count
    if not assumptions:
        tag = verdict(formula.effective_language(), "SAT").algorithm_tag
        if tag == "const_zero":
            return Assignment((0,) * n)
        if tag == "const_one":
            return Assignment((1,) * n)
    flags = _language_flags(formula)
    if "horn" in flags:
        return horn_model(clause_index(formula, "horn"), assumptions, default=0)
    if "dual_horn" in flags:
        return horn_model(clause_index(formula, "dual_horn"), assumptions, default=1)
    if "bijunctive" in flags:
        return twosat_model(clause_index(formula, "bijunctive"), assumptions)
    if "affine" in flags:
        solved = affine_solve(formula, assumptions)
        return None if solved is None else Assignment.from_code(solved[0], n)
    models = enumerate_models(formula, cap=None if assumptions else 1).assignments
    for m in models:
        if all(m.value(v) == b for v, b in (assumptions or {}).items()):
            return m
    return None


def another_sat(formula: Formula, m: Assignment) -> Assignment | None:
    """Some model different from m, or None iff m is the unique model."""
    if not satisfies(formula, m):
        raise NotAModel("another_sat needs a satisfying assignment")
    lang = formula.effective_language()
    flags = lang.flags
    if flags & set(SCHAEFER_FLAGS):
        best: Assignment | None = None
        for v in range(1, formula.var_count + 1):
            cand = sat_solve(formula, {v: 1 - m.value(v)})
            if cand is None:
                continue
            if best is None or (hamming(m, cand), cand.bits) < (hamming(m, best), best.bits):
                best = cand
        return best
    tag = verdict(lang, "ANOTHERSAT").algorithm_tag
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
    lang = formula.effective_language()
    if verdict(lang, "TSSAT").complexity == "P":
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
    bitset ORs over the clause index.
    """
    if not satisfies(formula, m):
        raise NotAModel("another_sat_below_n needs a satisfying assignment")
    n = formula.var_count
    flags = _language_flags(formula)
    if "affine" in flags:
        _, basis = affine_solve(formula)
        return len(basis) >= 2 or (len(basis) == 1 and basis[0] != (1 << n) - 1)
    if n == 1 and flags & set(SCHAEFER_FLAGS):
        return False
    if "bijunctive" in flags:
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
    if flags & set(SCHAEFER_FLAGS):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                fixed = {i: 1 - m.value(i), j: m.value(j)}
                if sat_solve(formula, fixed) is not None:
                    return True
        return False
    distances = popcount(model_codes(formula) ^ m.code())
    return bool(((distances > 0) & (distances < n)).any())
