"""Unit absorption: the pinned residual keeps the models, and no residual
atom mentions a forced variable or is itself trivial."""

import random

from helpers import random_language
from minsol.errors import Unsatisfiable
from minsol.formulas import make_formula, model_codes
from minsol.preprocess import absorb_units
from minsol.relations import F_REL, IMPL, T_REL, Language


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
        assert set(map(int, model_codes(reduced.pinned()))) == models
        for name, vars_ in reduced.formula.atoms:
            rel = reduced.formula.relation(name)
            assert not set(vars_) & set(reduced.forced)
            assert not rel.is_full()
            assert not (rel.arity == 1 and rel.size == 1)
        residuals += 1
    assert residuals > 500 and refusals > 500


def test_implication_chain_listed_last_to_first():
    # each link forces the next one only after the pass that reached it
    n = 3_000
    atoms = [("impl", [i, i + 1]) for i in range(n - 1, 0, -1)] + [("t", [1])]
    reduced = absorb_units(make_formula(Language((("impl", IMPL), ("t", T_REL))), n, atoms))
    assert reduced.forced == {v: 1 for v in range(1, n + 1)}
    assert reduced.formula.atoms == ()
