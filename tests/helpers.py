"""Shared languages and instance samplers for the test suite."""

from __future__ import annotations

import random

import numpy as np

from minsol.formulas import Assignment, Formula, make_formula, model_codes
from minsol.relations import (
    DUALHORN3,
    F_REL,
    HORN3,
    IMPL,
    OR2,
    Language,
    Relation,
    T_REL,
    XOR2,
    even_rel,
    or_rel,
)


def lang(**named: Relation) -> Language:
    return Language(tuple(named.items()))


# Base languages for the eight exact-route families of the acceptance suite,
# drawn from the co-clone base table.
FAMILY_LANGUAGES: dict[str, Language] = {
    "iD1": lang(xor2=XOR2, t=T_REL),
    "iM2": lang(impl=IMPL, f=F_REL, t=T_REL),
    "iD2": lang(xor2=XOR2, impl=IMPL),
    "iS00_2": lang(or2=OR2, impl=IMPL, f=F_REL, t=T_REL),
    "iS00_3": lang(or3=or_rel(3), impl=IMPL, f=F_REL, t=T_REL),
    "iE2": lang(horn3=HORN3, f=F_REL, t=T_REL),
    "iV2": lang(dualhorn3=DUALHORN3, f=F_REL, t=T_REL),
    "iL2": lang(even4=even_rel(4), f=F_REL, t=T_REL),
}

# Problems that the classification serves exactly (at desk scale) per family.
FAMILY_EXACT_PROBLEMS: dict[str, tuple[str, ...]] = {
    "iD1": ("NSOL", "XSOL", "MSD"),
    "iM2": ("NSOL", "XSOL", "MSD"),
    "iD2": ("XSOL", "MSD"),
    "iS00_2": ("XSOL", "MSD"),
    "iS00_3": ("XSOL", "MSD"),
    "iE2": ("XSOL", "MSD"),
    "iV2": ("XSOL", "MSD"),
    "iL2": ("NSOL", "XSOL", "MSD"),
}


def random_formula(
    language: Language, rng: random.Random, max_vars: int = 10, max_atoms: int = 15
) -> Formula:
    names = [n for n, _ in language.relations]
    n = rng.randint(2, max_vars)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        name = rng.choice(names)
        arity = language.get(name).arity
        atoms.append((name, tuple(rng.randint(1, n) for _ in range(arity))))
    return make_formula(language, n, atoms)


def random_satisfiable(
    language: Language,
    rng: random.Random,
    max_vars: int = 10,
    max_atoms: int = 15,
    min_models: int = 1,
) -> tuple[Formula, np.ndarray]:
    """Rejection-sample a formula with at least `min_models` models."""
    while True:
        formula = random_formula(language, rng, max_vars, max_atoms)
        codes = model_codes(formula)
        if len(codes) >= min_models:
            return formula, codes


def random_assignment(rng: random.Random, n: int) -> Assignment:
    return Assignment.from_code(rng.randrange(1 << n), n)


def random_model(rng: random.Random, codes: np.ndarray, n: int) -> Assignment:
    return Assignment.from_code(int(rng.choice(codes)), n)


def random_language(rng: random.Random, max_arity: int = 3, max_rels: int = 3) -> Language:
    rels = {}
    for i in range(rng.randint(1, max_rels)):
        arity = rng.randint(1, max_arity)
        mask = rng.randint(1, (1 << (1 << arity)) - 1)
        rels[f"r{i}"] = Relation(arity, mask)
    return lang(**rels)


# Planted minimum distances for the MSD oracle: a relation whose closest
# members lie d apart, repeated on disjoint variables, has MSD exactly d.
ONE_IN_THREE_WORDS = ("001", "010", "100")  # distance 2
DIST2_5 = ("0000", "0011", "0101", "0110", "1001")  # distance 2, five members: not affine
# The nonzero words of the shortened Hamming [6,3,3] code: a nonlinear
# (6,7,3) code, and with a parity bit each a (7,7,4) code.
CODE_673 = ("100110", "010101", "001011", "110011", "101101", "011110", "111000")
CODE_774 = tuple(w + str(w.count("1") % 2) for w in CODE_673)


def planted_code(words: tuple[str, ...], n: int, interleaved: bool = True) -> Formula:
    """n / arity atoms of the relation with the given members, on disjoint
    variables: copy i on i, i + copies, i + 2 copies, ... if interleaved,
    else on a run of consecutive variables."""
    arity = len(words[0])
    copies = n // arity
    if interleaved:
        atoms = [("c", [i + 1 + copies * j for j in range(arity)]) for i in range(copies)]
    else:
        atoms = [("c", [arity * i + j + 1 for j in range(arity)]) for i in range(copies)]
    return make_formula(lang(c=Relation.from_tuples(arity, words)), n, atoms)
