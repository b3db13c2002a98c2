"""Post's lattice by its clone bases, the reference for the signature table.

The library keeps each node as its relation base and derives the order
from generator signatures.  This module states every node the other way
round, by a generating set of its polymorphism clone (Boehler, Creignou,
Reith and Vollmer, Playing with Boolean blocks I, SIGACT News 34(4),
2003), and the hitting-set chain members fam^k by their definition: the
chain's limit clone plus a (k+1)-ary near-unanimity function.  It also
holds the duality of the lattice, which complementing every tuple
induces.
"""

from __future__ import annotations

import polymorphism_oracle
from minsol import postlattice as pl
from minsol.relations import (
    AND2,
    AND_OR3,
    AND_ORNOT3,
    ANDNOT2,
    CONST0,
    CONST1,
    IMPL2F,
    MAJ3,
    NOT1,
    OR2F,
    OR_AND3,
    OR_ANDNOT3,
    XNOR2F,
    XNOR3,
    XOR2F,
    XOR3,
    BoolFunction,
)

AND_XNOR3 = BoolFunction.from_callable(3, lambda x, y, z: x & ((y + z + 1) % 2), "and_xnor")
SELFDUAL3 = BoolFunction.from_callable(
    3, lambda x, y, z: (x & (1 - y)) | (x & (1 - z)) | ((1 - y) & (1 - z)), "selfdual3"
)
SELFDUAL_MONOTONE3 = BoolFunction.from_callable(
    3, lambda x, y, z: (x & y) | (x & (1 - z)) | (y & (1 - z)), "selfdual_mon3"
)

# name: (clone base functions, dual name)
PLAIN_CLONES: dict[str, tuple[tuple[BoolFunction, ...], str]] = {
    "iBF": ((AND2, NOT1), "iBF"),
    "iR0": ((AND2, XOR2F), "iR1"),
    "iR1": ((OR2F, XNOR2F), "iR0"),
    "iR2": ((OR2F, AND_XNOR3), "iR2"),
    "iM": ((AND2, OR2F, CONST0, CONST1), "iM"),
    "iM0": ((AND2, OR2F, CONST0), "iM1"),
    "iM1": ((AND2, OR2F, CONST1), "iM0"),
    "iM2": ((AND2, OR2F), "iM2"),
    "iD": ((SELFDUAL3,), "iD"),
    "iD1": ((SELFDUAL_MONOTONE3,), "iD1"),
    "iD2": ((MAJ3,), "iD2"),
    "iL": ((XOR2F, CONST1), "iL"),
    "iL0": ((XOR2F,), "iL1"),
    "iL1": ((XNOR2F,), "iL0"),
    "iL2": ((XOR3,), "iL2"),
    "iL3": ((XNOR3,), "iL3"),
    "iV": ((OR2F, CONST0, CONST1), "iE"),
    "iV0": ((OR2F, CONST0), "iE1"),
    "iV1": ((OR2F, CONST1), "iE0"),
    "iV2": ((OR2F,), "iE2"),
    "iE": ((AND2, CONST0, CONST1), "iV"),
    "iE0": ((AND2, CONST0), "iV1"),
    "iE1": ((AND2, CONST1), "iV0"),
    "iE2": ((AND2,), "iV2"),
    "iN": ((NOT1, CONST0), "iN"),
    "iN2": ((NOT1,), "iN2"),
    "iI": ((CONST0, CONST1), "iI"),
    "iI0": ((CONST0,), "iI1"),
    "iI1": ((CONST1,), "iI0"),
    "BR": ((), "BR"),
}

FAMILY_DUALS = {
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
LIMIT_CLONES: dict[str, tuple[BoolFunction, ...]] = {
    "iS0": (IMPL2F,),
    "iS1": (ANDNOT2,),
    "iS02": (OR_ANDNOT3,),
    "iS12": (AND_ORNOT3,),
    "iS01": (OR_AND3, CONST1),
    "iS11": (AND_OR3, CONST0),
    "iS00": (OR_AND3,),
    "iS10": (AND_OR3,),
}


def near_unanimity(m: int) -> BoolFunction:
    """(m+1)-ary threshold: true iff at least m arguments are true."""
    return BoolFunction.from_callable(m + 1, lambda *xs: sum(xs) >= m, f"nu{m}")


def dual_near_unanimity(m: int) -> BoolFunction:
    """(m+1)-ary threshold: true iff at least two arguments are true."""
    return BoolFunction.from_callable(m + 1, lambda *xs: sum(xs) >= 2, f"dual_nu{m}")


# Clone bases of the hitting-set chain members by definition: the oracle
# for the projection-width membership test of the library.
FAMILY_CLONES = {
    "iS0": lambda m: (IMPL2F, dual_near_unanimity(m)),
    "iS1": lambda m: (ANDNOT2, near_unanimity(m)),
    "iS02": lambda m: (OR_ANDNOT3, dual_near_unanimity(m)),
    "iS12": lambda m: (AND_ORNOT3, near_unanimity(m)),
    "iS01": lambda m: (dual_near_unanimity(m), CONST1),
    "iS11": lambda m: (near_unanimity(m), CONST0),
    "iS00": lambda m: (OR_AND3, dual_near_unanimity(m)),
    "iS10": lambda m: (AND_OR3, near_unanimity(m)),
}


def clone_base(label: pl.CoCloneLabel) -> tuple[BoolFunction, ...]:
    if label.param is None:
        return PLAIN_CLONES[label.name][0]
    return FAMILY_CLONES[label.name](label.param)


def dual_label(label: pl.CoCloneLabel) -> pl.CoCloneLabel:
    if label.param is not None:
        return pl.CoCloneLabel(FAMILY_DUALS[label.name], label.param)
    return pl.CoCloneLabel(PLAIN_CLONES[label.name][1])


def preserves(functions, relations) -> bool:
    return all(polymorphism_oracle.is_polymorphism(f, r) for f in functions for r in relations)
