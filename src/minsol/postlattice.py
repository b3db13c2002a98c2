"""Post's lattice of co-clones: classification and per-problem verdicts.

Each node is one fact, a base of relations that generates it.  Its
signature is the set of `_GENERATORS` that preserve the whole base,
computed once at import for the 30 plain nodes and for fam^2 and fam^3 of
the eight hitting-set chains.  A language has the signature of the node it
generates, and no two nodes share one, so classification is one lookup.
The order is inclusion: lower <= upper iff every generator preserving
upper's base preserves lower's.  That needs each clone to be generated by
the generators it contains.  The clone bases of Boehler, Creignou, Reith
and Vollmer (SIGACT News 34(4), 2003) give this with these 16 functions;
their other three ternary bases are composites: x & (y <-> z) =
x & xor3(x, y, z), maj(x, -y, -z) lies in [maj, -] and maj(x, y, -z) in
[maj, xor3].

The generators preserving a language form a clone, closed under minors
(identifying arguments) and composition, so a signature skips some tests
(`_CLONE_FACTS`): a generator fails untested once one of its minors (or
xnor3's xor3) has failed, and holds untested once its composers hold:
maj, x | (y & z) and x & (y | z) lie in [&, |], and xnor3 in [-, xor3].
`_GENERATORS` lists every minor and composer first.

The verdicts of the six case analyses depend on a label only through its
node, and the ihsb params on its chain width, so they are computed once at
import on one representative label per node, and a lookup puts the
label's width into the param.

The clone of fam^k adds a (k+1)-ary threshold, a near-unanimity function,
to the chain's limit clone; for k >= 3 it is no generator, so fam^k
shares fam^3's signature.  A relation r lies in fam^k iff the limit clone
preserves r and r's projection width is at most k.  Only if: r is then the
join of its k-ary projections (Baker and Pixley, Math. Z. 143, 1975).
If: every limit clone contains x | (y & z) (dually x & (y | z)).  Given
k+1 tuples of a relation of arity <= k in the limit co-clone, pigeonhole
yields a tuple t that is 0 wherever their threshold u is, so
u = t | (a & b) | ... over all pairs a, b of the tuples lies in the
relation.  The k-ary projections of r are such relations.  Hence a fam^3
signature classifies to fam^w, w the largest projection width, and a node
lies below fam^k only if its width is at most k.  The width of such r is
that of its widest prime positive clause (`relations.projection_width`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

from .errors import InternalConsistencyError, ParseError
from .relations import (
    AND2,
    AND_OR3,
    AND_ORNOT3,
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
        if self.name not in _PLAIN_NODES and self.name not in PARAM_FAMILIES:
            raise ParseError(f"{self.name!r} is not a co-clone of the lattice")
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
            try:
                return cls(name, int(p))
            except ValueError:
                raise ParseError(f"family parameter {p!r} is not an integer") from None
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

_GENERATORS = (
    AND2, NOT1, XOR2F, OR2F, XNOR2F, CONST0, CONST1, MAJ3,
    XOR3, XNOR3, IMPL2F, ANDNOT2, OR_ANDNOT3, AND_ORNOT3, OR_AND3, AND_OR3,
)

_PLAIN_NODES: dict[str, tuple[Relation, ...]] = {
    "iBF": (EQ2,),
    "iR0": (F_REL,),
    "iR1": (T_REL,),
    "iR2": (F_REL, T_REL),
    "iM": (IMPL,),
    "iM0": (IMPL, F_REL),
    "iM1": (IMPL, T_REL),
    "iM2": (IMPL, F_REL, T_REL),
    "iD": (XOR2,),
    "iD1": (XOR2, T_REL),
    "iD2": (XOR2, IMPL),
    "iL": (even_rel(4),),
    "iL0": (even_rel(3),),
    "iL1": (odd_rel(3),),
    "iL2": (even_rel(3), odd_rel(3)),
    "iL3": (even_rel(4), XOR2),
    "iV": (DUALHORN3,),
    "iV0": (DUALHORN3, F_REL),
    "iV1": (DUALHORN3, T_REL),
    "iV2": (DUALHORN3, F_REL, T_REL),
    "iE": (HORN3,),
    "iE0": (HORN3, F_REL),
    "iE1": (HORN3, T_REL),
    "iE2": (HORN3, F_REL, T_REL),
    "iN": (DUP3,),
    "iN2": (NAE3,),
    # {dup3, x->y} generates iI (both relations are 0- and 1-valid), and the
    # unit-extended variants pin down iI0/iI1; these arity-3 bases keep the
    # closure oracle cheap and are validated by the base-fixpoint test.
    "iI": (DUP3, IMPL),
    "iI0": (DUP3, IMPL, F_REL),
    "iI1": (DUP3, IMPL, T_REL),
    "BR": (ONE_IN_THREE,),
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


def _bits(*functions: BoolFunction) -> int:
    return sum(1 << _GENERATORS.index(f) for f in functions)


# Clone facts, keyed by generator index: (needs, composers).  The generator
# holds only if all it needs do, and holds whenever all its composers do.
_CLONE_FACTS: dict[int, tuple[int, int]] = {
    _GENERATORS.index(f): (_bits(*needs), _bits(*composers))
    for f, needs, composers in (
        (MAJ3, (), (AND2, OR2F)),
        (XNOR3, (NOT1, XOR3), (NOT1, XOR3)),  # xnor3 = -xor3, xnor3(x, x, x) = -x
        (OR_ANDNOT3, (OR2F,), ()),  # or_andnot(x, y, x) = x | y
        (AND_ORNOT3, (AND2,), ()),  # and_ornot(x, y, x) = x & y
        (OR_AND3, (OR2F,), (AND2, OR2F)),  # or_and(x, y, y) = x | y
        (AND_OR3, (AND2,), (AND2, OR2F)),  # and_or(x, y, y) = x & y
    )
}


def _signature(relations: tuple[Relation, ...]) -> int:
    """Bit i is set iff `_GENERATORS[i]` preserves every relation; the
    clone facts settle some bits without a test."""
    sig = 0
    for i, f in enumerate(_GENERATORS):
        needs, composers = _CLONE_FACTS.get(i, (0, 0))
        if sig & needs != needs:
            continue
        if (composers and sig & composers == composers) or all(
            is_polymorphism(f, r) for r in relations
        ):
            sig |= 1 << i
    return sig


def _node(label: CoCloneLabel) -> tuple[str, int | None]:
    """A label's key in the signature table."""
    return label.name, None if label.param is None else min(label.param, 3)


_SIGNATURES: dict[tuple[str, int | None], int] = {
    **{(name, None): _signature(base) for name, base in _PLAIN_NODES.items()},
    **{(fam, k): _signature(base(k)) for fam, base in _FAMILY_BASES.items() for k in (2, 3)},
}
_NODES = {sig: node for node, sig in _SIGNATURES.items()}
if len(_NODES) != len(_SIGNATURES):
    raise InternalConsistencyError("two lattice nodes share a generator signature")
_WIDTHS = {name: max(map(projection_width, base)) for name, base in _PLAIN_NODES.items()
           if _SIGNATURES[name, None] & _bits(OR_AND3, AND_OR3)}


def relation_base(label: CoCloneLabel) -> tuple[Relation, ...]:
    if label.param is not None:
        return _FAMILY_BASES[label.name](label.param)
    return _PLAIN_NODES[label.name]


def all_labels(max_param: int) -> tuple[CoCloneLabel, ...]:
    out = [CoCloneLabel(n) for n in _PLAIN_NODES]
    for fam in PARAM_FAMILIES:
        out.extend(CoCloneLabel(fam, m) for m in range(2, max_param + 1))
    return tuple(out)


def label_leq(lower: CoCloneLabel, upper: CoCloneLabel) -> bool:
    """Co-clone inclusion: every generator that preserves upper's base
    preserves lower's, and below fam^k the width is at most k.  Below the
    top chain member fam^MAX_FAMILY_PARAM means below some member."""
    if _SIGNATURES[_node(upper)] & ~_SIGNATURES[_node(lower)]:
        return False
    return upper.param is None or chain_width(lower) <= upper.param


def chain_width(label: CoCloneLabel) -> int:
    """Least k with label <= fam^k for a chain fam the label lies below: the
    largest projection width among its base relations."""
    return _WIDTHS[label.name] if label.param is None else label.param


def _classify_relations(relations: tuple[Relation, ...]) -> CoCloneLabel:
    sig = _signature(relations)
    node = _NODES.get(sig)
    if node is None:
        raise InternalConsistencyError(f"no lattice node has generator signature {sig:#06x}")
    name, param = node
    if param == 3:
        param = max(map(projection_width, relations))
        if param < 3:
            raise InternalConsistencyError(f"{name}^3 signature at projection width {param}")
    return CoCloneLabel(name, param)


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


_TABLE: dict[tuple[str, int | None], dict[str, Verdict]] = {
    node: {p: analysis(CoCloneLabel(*node)) for p, analysis in _VERDICTS.items()}
    for node in _SIGNATURES
}


def verdict_for_label(label: CoCloneLabel, problem: str) -> Verdict:
    verdicts = _TABLE[_node(label)]
    if problem not in verdicts:
        raise ParseError(f"unknown problem {problem!r}")
    v = verdicts[problem]
    return v if v.param in (None, label.param) else replace(v, param=chain_width(label))


def verdict(gamma: Language, problem: str) -> Verdict:
    """Complexity case and algorithm tag for the language, per problem."""
    return verdict_for_label(classify(gamma), problem)


def all_verdicts(gamma: Language) -> dict[str, Verdict]:
    label = classify(gamma)
    return {p: verdict_for_label(label, p) for p in PROBLEMS}
