"""Post's lattice of co-clones: classification and per-problem verdicts.

The lattice ships as static data: each node carries a generating set for
its polymorphism clone and a base set of relations.  A language lies in a
node iff every clone-base function preserves every member relation, and
the node order is decided the same way, so classification reduces to
picking the minimum of the feasible up-set.  The clone of a hitting-set
chain member fam^k adds a (k+1)-ary threshold, a near-unanimity function,
to the chain's limit clone, so a relation r lies in fam^k iff the limit
clone preserves r and r's projection width is at most k.  Only if: r is
then the join of its k-ary projections (Baker and Pixley, Math. Z. 143,
1975).  If: every limit clone contains x | (y & z) (dually x & (y | z)).
Given k+1 tuples of a relation of arity <= k in the limit co-clone,
pigeonhole yields a tuple t that is 0 wherever their threshold u is, so
u = t | (a & b) | ... over all pairs a, b of the tuples lies in the
relation.  The k-ary projections of r are such relations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InternalConsistencyError, ParseError
from .relations import (
    AND2,
    AND_OR3,
    AND_ORNOT3,
    AND_XNOR3,
    ANDNOT2,
    CONST0,
    CONST1,
    DUALHORN3,
    DUP3,
    EQ2,
    F_REL,
    HORN3,
    IMPL,
    IMPL2F,
    MAJ3,
    NAE3,
    NOT1,
    ONE_IN_THREE,
    OR2F,
    OR_AND3,
    OR_ANDNOT3,
    BoolFunction,
    Language,
    Relation,
    SELFDUAL3,
    SELFDUAL_MONOTONE3,
    T_REL,
    XNOR2F,
    XNOR3,
    XOR2,
    XOR2F,
    XOR3,
    even_rel,
    is_polymorphism,
    nand_rel,
    odd_rel,
    or_rel,
    projection_width,
)

PARAM_FAMILIES = ("iS0", "iS1", "iS00", "iS01", "iS02", "iS10", "iS11", "iS12")
MAX_FAMILY_PARAM = 17

PROBLEMS = ("NSOL", "XSOL", "MSD", "SAT", "ANOTHERSAT", "TSSAT")


@dataclass(frozen=True)
class CoCloneLabel:
    """A node of the co-clone lattice, e.g. iM2 or iS00^3."""

    name: str
    param: int | None = None

    def __post_init__(self) -> None:
        if (self.name in PARAM_FAMILIES) != (self.param is not None):
            raise ParseError(f"parameter presence inconsistent for {self.name}")
        if self.param is not None and not 2 <= self.param <= MAX_FAMILY_PARAM:
            raise ParseError(f"family parameter {self.param} outside 2..{MAX_FAMILY_PARAM}")

    def __str__(self) -> str:
        return self.name if self.param is None else f"{self.name}^{self.param}"

    @classmethod
    def parse(cls, text: str) -> "CoCloneLabel":
        if "^" in text:
            name, _, p = text.partition("^")
            return cls(name, int(p))
        return cls(text)


@dataclass(frozen=True)
class Verdict:
    """Complexity case and dispatched routine for one problem."""

    problem: str
    complexity: str
    algorithm_tag: str
    param: int | None = None

    def __str__(self) -> str:
        p = "" if self.param is None else f"[{self.param}]"
        return f"{self.problem}: {self.complexity} via {self.algorithm_tag}{p}"


# --- static node table -----------------------------------------------------

_PLAIN_NODES: dict[str, tuple[tuple[BoolFunction, ...], tuple[Relation, ...], str]] = {
    # name: (clone base functions, co-clone base relations, dual name)
    "iBF": ((AND2, NOT1), (EQ2,), "iBF"),
    "iR0": ((AND2, XOR2F), (F_REL,), "iR1"),
    "iR1": ((OR2F, XNOR2F), (T_REL,), "iR0"),
    "iR2": ((OR2F, AND_XNOR3), (F_REL, T_REL), "iR2"),
    "iM": ((AND2, OR2F, CONST0, CONST1), (IMPL,), "iM"),
    "iM0": ((AND2, OR2F, CONST0), (IMPL, F_REL), "iM1"),
    "iM1": ((AND2, OR2F, CONST1), (IMPL, T_REL), "iM0"),
    "iM2": ((AND2, OR2F), (IMPL, F_REL, T_REL), "iM2"),
    "iD": ((SELFDUAL3,), (XOR2,), "iD"),
    "iD1": ((SELFDUAL_MONOTONE3,), (XOR2, T_REL), "iD1"),
    "iD2": ((MAJ3,), (XOR2, IMPL), "iD2"),
    "iL": ((XOR2F, CONST1), (even_rel(4),), "iL"),
    "iL0": ((XOR2F,), (even_rel(3),), "iL1"),
    "iL1": ((XNOR2F,), (odd_rel(3),), "iL0"),
    "iL2": ((XOR3,), (even_rel(3), odd_rel(3)), "iL2"),
    "iL3": ((XNOR3,), (even_rel(4), XOR2), "iL3"),
    "iV": ((OR2F, CONST0, CONST1), (DUALHORN3,), "iE"),
    "iV0": ((OR2F, CONST0), (DUALHORN3, F_REL), "iE1"),
    "iV1": ((OR2F, CONST1), (DUALHORN3, T_REL), "iE0"),
    "iV2": ((OR2F,), (DUALHORN3, F_REL, T_REL), "iE2"),
    "iE": ((AND2, CONST0, CONST1), (HORN3,), "iV"),
    "iE0": ((AND2, CONST0), (HORN3, F_REL), "iV1"),
    "iE1": ((AND2, CONST1), (HORN3, T_REL), "iV0"),
    "iE2": ((AND2,), (HORN3, F_REL, T_REL), "iV2"),
    "iN": ((NOT1, CONST0), (DUP3,), "iN"),
    "iN2": ((NOT1,), (NAE3,), "iN2"),
    # {dup3, x->y} generates iI (both relations are 0- and 1-valid), and the
    # unit-extended variants pin down iI0/iI1; these arity-3 bases keep the
    # closure oracle cheap and are validated by the base-fixpoint test.
    "iI": ((CONST0, CONST1), (DUP3, IMPL), "iI"),
    "iI0": ((CONST0,), (DUP3, IMPL, F_REL), "iI1"),
    "iI1": ((CONST1,), (DUP3, IMPL, T_REL), "iI0"),
    "BR": ((), (ONE_IN_THREE,), "BR"),
}

_FAMILY_BASES: dict[str, Callable[[int], tuple[Relation, ...]]] = {
    "iS0": lambda m: (or_rel(m),),
    "iS1": lambda m: (nand_rel(m),),
    "iS02": lambda m: (or_rel(m), F_REL, T_REL),
    "iS12": lambda m: (nand_rel(m), F_REL, T_REL),
    "iS01": lambda m: (or_rel(m), IMPL),
    "iS11": lambda m: (nand_rel(m), IMPL),
    "iS00": lambda m: (or_rel(m), IMPL, F_REL, T_REL),
    "iS10": lambda m: (nand_rel(m), IMPL, F_REL, T_REL),
}

_FAMILY_DUALS = {
    "iS0": "iS1",
    "iS1": "iS0",
    "iS02": "iS12",
    "iS12": "iS02",
    "iS01": "iS11",
    "iS11": "iS01",
    "iS00": "iS10",
    "iS10": "iS00",
}

# Clone generators of the unbounded hitting-set chains: a relation lies in
# family^k iff these preserve it and its projection width is at most k.
_LIMIT_CLONES: dict[str, tuple[BoolFunction, ...]] = {
    "iS0": (IMPL2F,),
    "iS1": (ANDNOT2,),
    "iS02": (OR_ANDNOT3,),
    "iS12": (AND_ORNOT3,),
    "iS01": (OR_AND3, CONST1),
    "iS11": (AND_OR3, CONST0),
    "iS00": (OR_AND3,),
    "iS10": (AND_OR3,),
}


@functools.lru_cache(maxsize=None)
def relation_base(label: CoCloneLabel) -> tuple[Relation, ...]:
    if label.param is not None:
        return _FAMILY_BASES[label.name](label.param)
    return _PLAIN_NODES[label.name][1]


def dual_label(label: CoCloneLabel) -> CoCloneLabel:
    if label.param is not None:
        return CoCloneLabel(_FAMILY_DUALS[label.name], label.param)
    return CoCloneLabel(_PLAIN_NODES[label.name][2])


def all_labels(max_param: int) -> tuple[CoCloneLabel, ...]:
    out = [CoCloneLabel(n) for n in _PLAIN_NODES]
    for fam in PARAM_FAMILIES:
        out.extend(CoCloneLabel(fam, m) for m in range(2, max_param + 1))
    return tuple(out)


def _preserves_all(functions: Iterable[BoolFunction], relations: Iterable[Relation]) -> bool:
    return all(is_polymorphism(f, r) for f in functions for r in relations)


@functools.lru_cache(maxsize=None)
def label_leq(lower: CoCloneLabel, upper: CoCloneLabel) -> bool:
    """Co-clone inclusion, decided through the Galois connection; below the
    top chain member fam^MAX_FAMILY_PARAM means below some member."""
    if upper.param is None:
        return _preserves_all(_PLAIN_NODES[upper.name][0], relation_base(lower))
    base = relation_base(lower)
    return _preserves_all(_LIMIT_CLONES[upper.name], base) and chain_width(lower) <= upper.param


@functools.lru_cache(maxsize=None)
def chain_width(label: CoCloneLabel) -> int:
    """Least k with label <= fam^k for a chain fam the label lies below: the
    largest projection width among its base relations."""
    return max(map(projection_width, relation_base(label)))


def _classify_relations(relations: tuple[Relation, ...]) -> CoCloneLabel:
    feasible = [
        CoCloneLabel(name)
        for name, (clone, _, _) in _PLAIN_NODES.items()
        if _preserves_all(clone, relations)
    ]
    chains = [fam for fam in PARAM_FAMILIES if _preserves_all(_LIMIT_CLONES[fam], relations)]
    if chains:
        width = max(map(projection_width, relations))
        feasible += [CoCloneLabel(fam, width) for fam in chains]
    minima = [
        lab
        for lab in feasible
        if all(label_leq(lab, other) for other in feasible)
    ]
    if len(minima) != 1:
        raise InternalConsistencyError(
            f"classification found {len(minima)} minimal co-clones: {list(map(str, minima))}"
        )
    return minima[0]


@functools.lru_cache(maxsize=None)
def _classify_cached(key: tuple[tuple[int, int], ...]) -> CoCloneLabel:
    return _classify_relations(tuple(Relation(a, m) for a, m in key))


def classify(gamma: Language) -> CoCloneLabel:
    """The least lattice node containing the language."""
    members = gamma.members()
    if not members:
        return CoCloneLabel("iBF")  # the empty language generates the bottom
    key = tuple(sorted({(r.arity, r.mask) for r in members}))
    return _classify_cached(key)


# --- per-problem complexity case analyses over the lattice ------------------


def _leq(label: CoCloneLabel, name: str, param: int | None = None) -> bool:
    return label_leq(label, CoCloneLabel(name, param))


def _geq(label: CoCloneLabel, name: str, param: int | None = None) -> bool:
    return label_leq(CoCloneLabel(name, param), label)


def _nsol_verdict(label: CoCloneLabel) -> Verdict:
    if _leq(label, "iD1"):
        return Verdict("NSOL", "PO", "2affine_exact")
    if _leq(label, "iM2"):
        return Verdict("NSOL", "PO", "monotone_mincut")
    if _geq(label, "iS0", 2) or _geq(label, "iS1", 2):
        if _leq(label, "iD2"):
            return Verdict("NSOL", "APX_complete", "bijunctive_2approx")
        if _geq(label, "iS0", 2) and _leq(label, "iS00", MAX_FAMILY_PARAM):
            return Verdict("NSOL", "APX_complete", "ihsb_rounding", chain_width(label))
        if _geq(label, "iS1", 2) and _leq(label, "iS10", MAX_FAMILY_PARAM):
            return Verdict("NSOL", "APX_complete", "ihsb_rounding_dual", chain_width(label))
    if _geq(label, "iL") and _leq(label, "iL2"):
        return Verdict("NSOL", "NCW_complete", "affine_exact")
    if (_geq(label, "iE") and _leq(label, "iE2")) or (_geq(label, "iV") and _leq(label, "iV2")):
        return Verdict("NSOL", "MinHD_complete", "feasible_napprox")
    if _geq(label, "iN") and (_leq(label, "iI0") or _leq(label, "iI1")):
        return Verdict("NSOL", "pAPX_complete", "feasible_napprox")
    if not _geq(label, "iN2"):
        raise InternalConsistencyError(f"NSOL case analysis missed {label}")
    return Verdict("NSOL", "NPO_complete", "exhaustive_fallback")


def _xsol_verdict(label: CoCloneLabel) -> Verdict:
    if _leq(label, "iD2"):
        return Verdict("XSOL", "PO", "bijunctive_flip")
    if _leq(label, "iS00", MAX_FAMILY_PARAM):
        return Verdict("XSOL", "PO", "ihsb_flip", chain_width(label))
    if _leq(label, "iS10", MAX_FAMILY_PARAM):
        return Verdict("XSOL", "PO", "ihsb_flip_dual", chain_width(label))
    if _geq(label, "iL") and _leq(label, "iL2"):
        return Verdict("XSOL", "MinDist_complete", "affine_mindist")
    if _geq(label, "iE") and _leq(label, "iE2"):
        return Verdict("XSOL", "MinHD_complete", "horn_turing")
    if _geq(label, "iV") and _leq(label, "iV2"):
        return Verdict("XSOL", "MinHD_complete", "horn_turing_dual")
    if label == CoCloneLabel("iI") or (_geq(label, "iN") and _leq(label, "iN2")):
        return Verdict("XSOL", "pAPX", "anothersat_napprox")
    if not (_geq(label, "iI0") or _geq(label, "iI1")):
        raise InternalConsistencyError(f"XSOL case analysis missed {label}")
    return Verdict("XSOL", "NPO_complete", "exhaustive_fallback")


def _msd_verdict(label: CoCloneLabel) -> Verdict:
    if _leq(label, "iD2"):
        return Verdict("MSD", "PO", "bijunctive_classes")
    if _leq(label, "iE2"):
        return Verdict("MSD", "PO", "horn_closure")
    if _leq(label, "iV2"):
        return Verdict("MSD", "PO", "horn_closure_dual")
    if _geq(label, "iL") and _leq(label, "iL2"):
        return Verdict("MSD", "MinDist_complete", "affine_mindist")
    if _geq(label, "iN") and _leq(label, "iI"):
        return Verdict("MSD", "pAPX", "tssat_napprox")
    if not (_geq(label, "iN2") or _geq(label, "iI0") or _geq(label, "iI1")):
        raise InternalConsistencyError(f"MSD case analysis missed {label}")
    return Verdict("MSD", "NPO_complete", "exhaustive_fallback")


def _sat_verdict(label: CoCloneLabel) -> Verdict:
    if _leq(label, "iI0"):
        return Verdict("SAT", "P", "const_zero")
    if _leq(label, "iI1"):
        return Verdict("SAT", "P", "const_one")
    if _leq(label, "iE2"):
        return Verdict("SAT", "P", "horn_prop")
    if _leq(label, "iV2"):
        return Verdict("SAT", "P", "dualhorn_prop")
    if _leq(label, "iD2"):
        return Verdict("SAT", "P", "twosat")
    if _leq(label, "iL2"):
        return Verdict("SAT", "P", "affine_gauss")
    return Verdict("SAT", "NP_complete", "exhaustive_fallback")


def _anothersat_verdict(label: CoCloneLabel) -> Verdict:
    if _leq(label, "iD2") or _leq(label, "iE2") or _leq(label, "iV2") or _leq(label, "iL2"):
        return Verdict("ANOTHERSAT", "P", "flip_resolve")
    if _leq(label, "iN2"):
        return Verdict("ANOTHERSAT", "P", "complement")
    if _leq(label, "iI"):
        return Verdict("ANOTHERSAT", "P", "both_valid")
    return Verdict("ANOTHERSAT", "NP_complete", "exhaustive_fallback")


def _tssat_verdict(label: CoCloneLabel) -> Verdict:
    if _sat_verdict(label).complexity == "P" and _anothersat_verdict(label).complexity == "P":
        return Verdict("TSSAT", "P", "sat_then_anothersat")
    return Verdict("TSSAT", "NP_complete", "exhaustive_fallback")


_VERDICTS: dict[str, Callable[[CoCloneLabel], Verdict]] = {
    "NSOL": _nsol_verdict,
    "XSOL": _xsol_verdict,
    "MSD": _msd_verdict,
    "SAT": _sat_verdict,
    "ANOTHERSAT": _anothersat_verdict,
    "TSSAT": _tssat_verdict,
}


@functools.lru_cache(maxsize=None)
def verdict_for_label(label: CoCloneLabel, problem: str) -> Verdict:
    if problem not in _VERDICTS:
        raise ParseError(f"unknown problem {problem!r}")
    return _VERDICTS[problem](label)


def verdict(gamma: Language, problem: str) -> Verdict:
    """Complexity case and algorithm tag for the language, per problem."""
    return verdict_for_label(classify(gamma), problem)


def all_verdicts(gamma: Language) -> dict[str, Verdict]:
    label = classify(gamma)
    return {p: verdict_for_label(label, p) for p in PROBLEMS}
