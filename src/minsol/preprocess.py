"""Unit-atom absorption shared by the three optimization solvers, and
the one way to pin variables of a formula.

Unit atoms pin variables; pinned coordinates are substituted into the
remaining atoms, which can only shrink the residual language, so the
dispatcher classifies what is actually left to solve.  The residual
formula keeps the original variable indexing; forced variables are
referenced only by the unit atoms `pin` appends, so it has exactly the
original models, and a relation restricted by pinning gets a name of its
own while the others keep theirs.  Only a one-member unary atom forces a
variable, so a formula without one only loses its full atoms and its
unused declarations, and is returned itself when it has neither.
"""

from __future__ import annotations

from .errors import Unsatisfiable
from .formulas import Formula
from .relations import F_REL, T_REL, Language, Relation


def pin(formula: Formula, values: dict[int, int]) -> Formula:
    """The formula with a builtin unit atom pinning each variable of
    `values` to its value, appended in variable order; the formula itself
    if `values` is empty.  A pin reuses the language's declaration of t or
    f, and gets a fresh name where that name means another relation."""
    if not values:
        return formula
    lang = formula.language
    pairs = list(lang.relations)
    names = {}
    for value, rel in ((1, T_REL), (0, F_REL)):
        # reuse a declaration of the same relation, never shadow another
        name, k = ("t" if value else "f"), 0
        while lang.declared(name) not in (None, rel):
            name, k = f"__pin{value}_{k}", k + 1
        if lang.declared(name) is None:
            pairs.append((name, rel))
        names[value] = name
    pins = tuple((names[values[v]], (v,)) for v in sorted(values))
    return Formula(Language(tuple(pairs)), formula.var_count, formula.atoms + pins)


def absorb_units(formula: Formula) -> Formula:
    """Propagate unit atoms and pin their variables into the other atoms;
    the residual comes back with the forced variables pinned by `pin`.

    One pass settles every atom; after it, only the atoms that mention a
    newly forced variable are settled again, so an atom is revisited at
    most once per variable it mentions.  Raises Unsatisfiable on a unit
    conflict or an atom emptied by pinning.
    """
    forced: dict[int, int] = {}
    atoms: list[tuple[Relation, tuple[int, ...], str] | None] = [
        (rel, vars_, name) for rel, (name, vars_) in zip(formula.bound, formula.atoms)
    ]
    fresh: list[int] = []  # forced variables whose atoms may still mention them

    def settle(a: int) -> None:
        rel, vars_, name = atoms[a]
        # pin coordinates whose variable is already forced
        i = 0
        while i < rel.arity:
            v = vars_[i]
            if v in forced:
                if rel.arity == 1:
                    if not rel.contains(forced[v]):
                        raise Unsatisfiable("unit atoms conflict")
                    atoms[a] = None  # satisfied outright
                    return
                rel = rel.restrict(i, forced[v])
                if rel is None:
                    raise Unsatisfiable(f"atom {name} emptied by unit propagation")
                vars_ = vars_[:i] + vars_[i + 1 :]
                continue
            i += 1
        if rel.arity == 1 and rel.size == 1:
            # no coordinate is forced any more, so vars_[0] is new; the mask
            # of a one-member unary relation is 0b01 or 0b10
            forced[vars_[0]] = rel.mask >> 1
            fresh.append(vars_[0])
            atoms[a] = None
        else:
            atoms[a] = None if rel.is_full() else (rel, vars_, name)

    if any(rel.arity == 1 and rel.size == 1 for rel in formula.bound):
        for a in range(len(atoms)):
            settle(a)
    else:
        # nothing can be forced, so settling would only drop the full atoms
        atoms = [None if atom[0].is_full() else atom for atom in atoms]
    if fresh:
        occurs: dict[int, list[int]] = {}
        for a, atom in enumerate(atoms):
            for v in set(atom[1]) if atom else ():
                occurs.setdefault(v, []).append(a)
        while fresh:
            for a in occurs.get(fresh.pop(), ()):
                if atoms[a] is not None:
                    settle(a)
    keys: dict[tuple[str, int, int], str] = {}  # one residual name per relation
    pairs: dict[str, Relation] = {}
    new_atoms: list[tuple[str, tuple[int, ...]]] = []
    for a, atom in enumerate(atoms):
        if atom is None:
            continue
        rel, vars_, name = atom
        key = name if rel is formula.bound[a] else keys.get((name, rel.arity, rel.mask))
        if key is None:  # a restricted relation gets a name of its own
            key = keys[name, rel.arity, rel.mask] = f"{name}#{rel.arity}x{rel.mask:x}"
        pairs[key] = rel
        new_atoms.append((key, vars_))
    lang = formula.language
    if (
        len(new_atoms) == len(formula.atoms)
        and len(lang.relations) == len(pairs)
        and all(lang.declared(key) is not None for key in pairs)
    ):
        # nothing was dropped, so nothing was forced or restricted either
        return formula
    residual = Formula(Language(tuple(pairs.items())), formula.var_count, tuple(new_atoms))
    return pin(residual, forced)
