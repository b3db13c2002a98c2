#!/usr/bin/env python3
"""Golden answers of the three dispatchers, one JSON record per solve.

Seeded small instances (n <= 8) over the acceptance-suite family
languages, their duals and four NP-hard-side languages are solved in
every mode.  Each record names the instance (language and index; the
seeds regenerate its atoms), the verdict tag of its
unit-absorbed residual, and either the answer (value, witnesses,
guarantee, method, verdict) or the class of the error raised.  A
refactor of the dispatch layer must leave every record byte-identical;
`tests/test_dispatch.py` recomputes them and compares.

A second file holds auto-mode answers at n in {16, 32, 48}, where the
n <= 8 instances never reach: long implication chains and large literal
classes.  Each formula there is planted, built from random atoms that
a few random models satisfy, so it is satisfiable without enumeration.
It covers MSD and XSOL over the bijunctive, hitting-set and Horn
families and their duals, and NSOL from a random assignment over the
bijunctive and hitting-set families and their duals (the LP-rounding
routes).  Horn XSOL answers a single flip of the given
model when one is a model (distance 1, exact), and otherwise runs
exhaustively within the 24-variable cap (n = 16) and through pinned
auto-mode NSOL calls beyond it (n = 32, 48).

A third file pins the classification: the label and all six verdicts of
the stored base of every lattice node up to parameter 6 and of its dual,
of seeded random languages up to arity 5, and of seeded languages of
chain-shaped relations up to arity 4 (random positive or negative
clauses of width 2-4, with or without implications and units).

Usage: PYTHONPATH=src python scripts/dispatch_golden.py   # rewrites all three files
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import (  # noqa: E402
    FAMILY_LANGUAGES,
    lang,
    random_formula,
    random_language,
    random_satisfiable,
)
from minsol.errors import MinsolError  # noqa: E402
from minsol.formulas import MSD, NSOL, XSOL, Assignment, make_formula, model_codes  # noqa: E402
from minsol.msd import solve_msd  # noqa: E402
from minsol.nsol import solve_nsol  # noqa: E402
from minsol.postlattice import (  # noqa: E402
    PROBLEMS,
    all_labels,
    classify,
    relation_base,
    verdict,
    verdict_for_label,
)
from minsol.preprocess import absorb_units  # noqa: E402
from minsol.relations import (  # noqa: E402
    DUP3,
    F_REL,
    IMPL,
    NAE3,
    ONE_IN_THREE,
    T_REL,
    Language,
    Relation,
    clause_rel,
    dualize,
    tuple_code,
)
from minsol.xsol import solve_xsol  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "dispatch_golden.jsonl"
MODES = ("auto", "exact", "approx")
INSTANCES_PER_LANGUAGE = 30
MAX_VARS = 8
MAX_ATOMS = 10

LARGE_GOLDEN = ROOT / "tests" / "data" / "dispatch_golden_large.jsonl"
LARGE_SIZES = (16, 32, 48)
LARGE_INSTANCES = 6
LARGE_FAMILIES = {
    "MSD": ("iD1", "iD2", "iM2", "iS00_3", "iE2", "iV2"),
    "XSOL": ("iD1", "iD2", "iM2", "iS00_3", "iE2", "iV2"),
    "NSOL": ("iD2", "iS00_2", "iS00_3"),
}

CLASSIFY_GOLDEN = ROOT / "tests" / "data" / "classify_golden.jsonl"
CLASSIFY_BASE_PARAM = 6
RANDOM_LANGUAGES = 150
RANDOM_MAX_ARITY = 5
CHAIN_LANGUAGES = 40  # per sign x (implications, units)
CHAIN_MAX_ARITY = 4


def languages() -> dict[str, Language]:
    out = dict(FAMILY_LANGUAGES)
    out.update({f"{name}_dual": g.dualized() for name, g in FAMILY_LANGUAGES.items()})
    out["nae3"] = lang(nae3=NAE3)
    out["one_in_three"] = lang(one_in_three=ONE_IN_THREE)
    out["dup3"] = lang(dup3=DUP3)
    out["dup3+impl"] = lang(dup3=DUP3, impl=IMPL)
    return out


def _tag(formula, problem: str) -> str | None:
    try:
        res = absorb_units(formula)
    except MinsolError:
        return None
    return verdict(res.effective_language(), problem).algorithm_tag


def _answer(solve) -> dict:
    try:
        out = solve()
    except MinsolError as exc:
        return {"error": type(exc).__name__}
    return {
        "value": out.value,
        "witnesses": [str(w) for w in out.witnesses()],
        "guarantee": str(out.guarantee),
        "method": out.method,
        "verdict": None if out.verdict is None else str(out.verdict),
    }


def records():
    """Every golden record, in file order."""
    for name, language in languages().items():
        rng = random.Random(f"dispatch-golden/{name}")
        for k in range(INSTANCES_PER_LANGUAGE):
            if k % 3 == 0:  # may be unsatisfiable or have a single model
                formula = random_formula(language, rng, MAX_VARS, MAX_ATOMS)
                codes = model_codes(formula)
            else:
                formula, codes = random_satisfiable(language, rng, MAX_VARS, MAX_ATOMS, 2)
            n = formula.var_count
            m = Assignment.from_code(rng.randrange(1 << n), n)
            # XSOL gets a model when there is one, else the (non-model) m
            model = Assignment.from_code(int(rng.choice(codes)), n) if len(codes) else m
            instance = {"language": name, "instance": k, "vars": n}
            for problem, point, solve in (
                ("NSOL", m, lambda mode: solve_nsol(formula, m, mode)),
                ("XSOL", model, lambda mode: solve_xsol(formula, model, mode)),
                ("MSD", None, lambda mode: solve_msd(formula, mode)),
            ):
                tag = _tag(formula, problem)
                for mode in MODES:
                    yield {
                        **instance,
                        "assignment": None if point is None else str(point),
                        "problem": problem,
                        "mode": mode,
                        "tag": tag,
                        **_answer(lambda: solve(mode)),
                    }


def planted(language: Language, rng: random.Random, n: int):
    """A formula over `language` with 2n, 4n or 8n atoms, each kept only if
    two or three random planted models all satisfy it, and the first
    planted model.  Variables that take the same values in every planted
    model tend to fall into one literal class."""
    models = [Assignment.from_code(rng.getrandbits(n), n) for _ in range(rng.randint(2, 3))]
    names = language.names()
    target = n * rng.choice((2, 4, 8))
    atoms = []
    while len(atoms) < target:
        name = rng.choice(names)
        rel = language.get(name)
        vs = rng.sample(range(1, n + 1), rel.arity)
        if all(rel.contains(tuple_code([m.value(v) for v in vs])) for m in models):
            atoms.append((name, vs))
    return make_formula(language, n, atoms), models[0]


def large_records():
    """Every record of the large golden file, in file order."""
    everything = languages()
    for problem, families in LARGE_FAMILIES.items():
        for name in [x for f in families for x in (f, f"{f}_dual")]:
            rng = random.Random(f"dispatch-golden-large/{problem}/{name}")
            for n in LARGE_SIZES:
                for k in range(LARGE_INSTANCES):
                    formula, model = planted(everything[name], rng, n)
                    if problem == NSOL:  # a random point, almost never a model
                        model = Assignment.from_code(rng.getrandbits(n), n)
                    point = None if problem == MSD else model
                    yield {
                        "language": name,
                        "instance": k,
                        "vars": n,
                        "atoms": len(formula.atoms),
                        "assignment": None if point is None else str(point),
                        "problem": problem,
                        "mode": "auto",
                        "tag": _tag(formula, problem),
                        **_answer(
                            lambda: solve_msd(formula)
                            if problem == MSD
                            else (solve_xsol if problem == XSOL else solve_nsol)(formula, model)
                        ),
                    }


def chain_relation(rng: random.Random, implications: bool, units: bool) -> Relation:
    """A nonempty conjunction of a positive clause over every coordinate,
    maybe one more of width 2 up to the arity, and up to two implications
    and one unit if allowed."""
    while True:
        arity = rng.randint(2, CHAIN_MAX_ARITY)
        widths = [arity] + [rng.randint(2, arity)] * rng.randint(0, 1)
        clauses = [(rng.sample(range(arity), w), []) for w in widths]
        for _ in range(rng.randint(0, 2) if implications else 0):
            a, b = rng.sample(range(arity), 2)
            clauses.append(([b], [a]))
        for _ in range(rng.randint(0, 1) if units else 0):
            x = [rng.randrange(arity)]
            clauses.append((x, []) if rng.random() < 0.5 else ([], x))
        mask = (1 << (1 << arity)) - 1
        for pos, neg in clauses:
            mask &= clause_rel(arity, pos, neg).mask
        if mask:
            return Relation(arity, mask)


def classify_languages():
    """(source, language) of every classification record, in file order."""
    for label in all_labels(CLASSIFY_BASE_PARAM):
        base = relation_base(label)
        yield f"base/{label}", base
        yield f"dual/{label}", tuple(dualize(r) for r in base)
    rng = random.Random("classify-golden/random")
    for k in range(RANDOM_LANGUAGES):
        yield f"random/{k}", random_language(rng, RANDOM_MAX_ARITY).members()
    shapes = itertools.product(("pos", "neg"), (False, True), (False, True))
    for sign, implications, units in shapes:
        extras = f"{'+impl' if implications else ''}{'+units' if units else ''}"
        # the same draws for both signs: the negative languages are the duals
        rng = random.Random(f"classify-golden/chain/{extras}")
        for k in range(CHAIN_LANGUAGES):
            rels = [chain_relation(rng, implications, units) for _ in range(rng.randint(1, 3))]
            extra = (IMPL,) * implications + (F_REL, T_REL) * units
            rels += [r for r in extra if rng.random() < 0.5]
            if sign == "neg":
                rels = [dualize(r) for r in rels]
            yield f"chain/{sign}{extras}/{k}", tuple(rels)


def classify_records():
    """Every record of the classification golden file, in file order."""
    for source, rels in classify_languages():
        label = classify(Language(tuple((f"r{i}", r) for i, r in enumerate(rels))))
        yield {
            "source": source,
            "relations": [[r.arity, f"{r.mask:x}"] for r in rels],
            "label": str(label),
            **{p: [v.algorithm_tag, v.complexity, v.param]
               for p in PROBLEMS for v in [verdict_for_label(label, p)]},
        }


def render(rows) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows)


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    for path, rows in (
        (GOLDEN, records()),
        (LARGE_GOLDEN, large_records()),
        (CLASSIFY_GOLDEN, classify_records()),
    ):
        path.write_text(render(rows), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
