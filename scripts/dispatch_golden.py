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
It covers MSD over the bijunctive, hitting-set and Horn families and
their duals, and XSOL over the bijunctive and hitting-set ones (Horn
XSOL makes n pinned exhaustive NSOL calls and is left out).

Usage: PYTHONPATH=src python scripts/dispatch_golden.py   # rewrites both files
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import FAMILY_LANGUAGES, lang, random_formula, random_satisfiable  # noqa: E402
from minsol.errors import MinsolError  # noqa: E402
from minsol.formulas import XSOL, Assignment, make_formula, model_codes  # noqa: E402
from minsol.msd import solve_msd  # noqa: E402
from minsol.nsol import solve_nsol  # noqa: E402
from minsol.postlattice import verdict  # noqa: E402
from minsol.preprocess import absorb_units  # noqa: E402
from minsol.relations import DUP3, IMPL, NAE3, ONE_IN_THREE, Language, tuple_code  # noqa: E402
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
    "XSOL": ("iD1", "iD2", "iM2", "iS00_3"),
}


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
        res = absorb_units(formula).pinned()
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
                    point = model if problem == XSOL else None
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
                            lambda: solve_xsol(formula, model)
                            if problem == XSOL
                            else solve_msd(formula)
                        ),
                    }


def render(rows) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows)


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    for path, rows in ((GOLDEN, records()), (LARGE_GOLDEN, large_records())):
        path.write_text(render(rows), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
