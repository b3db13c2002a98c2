"""Unit absorption: the pinned residual keeps the models, and no residual
atom mentions a forced variable or is itself trivial.  The forced values
are the one-member unary atoms that `pin` appends after the residual
atoms.  A formula without unit atoms is returned itself, or rebuilt
without its full atoms and unused declarations, and classifies as through
the settle loop."""

import random

from helpers import lang, random_formula, random_language
from minsol.errors import Unsatisfiable
from minsol.formulas import make_formula, model_codes
from minsol.postlattice import verdict
from minsol.preprocess import absorb_units
from minsol.relations import F_REL, IMPL, ONE_IN_THREE, OR2, T_REL, XOR2, Language, Relation


def _split(formula):
    """The residual atoms and the forced values, read off the one-member
    unary atoms after them."""
    k = len(formula.atoms)
    while k and formula.bound[k - 1].arity == 1 and formula.bound[k - 1].size == 1:
        k -= 1
    pins = zip(formula.bound[k:], formula.atoms[k:])
    forced = {vars_[0]: rel.mask >> 1 for rel, (_, vars_) in pins}
    assert len(forced) == len(formula.atoms) - k  # one pin per forced variable
    return formula.atoms[:k], forced


def _formulas_with_units(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        language = Language(random_language(rng).relations + (("t", T_REL), ("f", F_REL)))
        names = [name for name, _ in language.relations]
        n = rng.randint(1, 10)
        atoms = [(rng.choice("tf"), [rng.randint(1, n)])]
        for _ in range(rng.randint(0, 12)):
            name = rng.choice(names)
            atoms.append((name, [rng.randint(1, n) for _ in range(language.get(name).arity)]))
        rng.shuffle(atoms)
        yield make_formula(language, n, atoms)


def test_absorption_keeps_the_models_and_leaves_nothing_forced():
    residuals = refusals = 0
    for formula in _formulas_with_units(4_711, 3_000):
        models = set(map(int, model_codes(formula)))
        try:
            reduced = absorb_units(formula)
        except Unsatisfiable:
            assert not models
            refusals += 1
            continue
        assert set(map(int, model_codes(reduced))) == models
        atoms, forced = _split(reduced)
        for rel, (_, vars_) in zip(reduced.bound, atoms):
            assert not set(vars_) & set(forced)
            assert not rel.is_full()
            assert not (rel.arity == 1 and rel.size == 1)
        residuals += 1
    assert residuals > 500 and refusals > 500


def test_implication_chain_listed_last_to_first():
    # each link forces the next one only after the pass that reached it
    n = 3_000
    atoms = [("impl", [i, i + 1]) for i in range(n - 1, 0, -1)] + [("t", [1])]
    reduced = absorb_units(make_formula(Language((("impl", IMPL), ("t", T_REL))), n, atoms))
    assert _split(reduced) == ((), {v: 1 for v in range(1, n + 1)})


def test_nothing_to_absorb_returns_the_formula():
    f = make_formula(lang(or2=OR2, x=XOR2), 3, [("or2", [1, 2]), ("x", [2, 3])])
    assert absorb_units(f) is f


def test_full_atoms_and_unused_declarations_are_dropped():
    full = Relation(2, 0b1111)
    f = make_formula(lang(or2=OR2, full=full, x=XOR2), 3, [("full", [1, 3]), ("or2", [1, 2])])
    residual = absorb_units(f)
    assert residual.atoms == (("or2", (1, 2)),)
    assert residual.language.relations == (("or2", OR2),)
    # a builtin the language does not declare is declared in the residual
    g = make_formula(lang(or2=OR2), 2, [("or2", [1, 2]), ("nand2", [1, 2])])
    assert absorb_units(g).language.names() == ("or2", "nand2")


def test_without_units_classifies_as_through_the_settle_loop():
    # a unit atom on one more variable sends the same atoms through the
    # settle loop, which pins nothing else
    rng = random.Random(4_712)
    unit = ("__unit", T_REL)
    compared = 0
    while compared < 400:
        language = random_language(rng)
        f = random_formula(language, rng, max_vars=8, max_atoms=8)
        if any(rel.arity == 1 and rel.size == 1 for rel in f.bound):
            continue
        n = f.var_count
        settled = absorb_units(make_formula(
            Language(language.relations + (unit,)), n + 1, f.atoms + (("__unit", (n + 1,)),)
        ))
        atoms, forced = _split(settled)
        shortcut = absorb_units(f)
        assert forced == {n + 1: 1} and atoms == shortcut.atoms
        assert [2 * c + 1 for c in model_codes(shortcut).tolist()] == model_codes(settled).tolist()
        # the residual declares exactly the relations its atoms use
        residual = Language(tuple({name: settled.relation(name) for name, _ in atoms}.items()))
        for problem in ("NSOL", "XSOL", "MSD"):
            want = verdict(residual, problem).algorithm_tag
            assert verdict(shortcut.effective_language(), problem).algorithm_tag == want
        compared += 1


def test_only_restricted_relations_are_renamed():
    f = make_formula(
        lang(r=ONE_IN_THREE, x=XOR2, f=F_REL), 5, [("f", [1]), ("r", [1, 2, 3]), ("x", [4, 5])]
    )
    reduced = absorb_units(f)
    ((name, vars_), kept), forced = _split(reduced)
    assert forced == {1: 0}
    assert name == f"r#2x{XOR2.mask:x}" and vars_ == (2, 3) and kept == ("x", (4, 5))
    assert reduced.language.declared(name) == XOR2
