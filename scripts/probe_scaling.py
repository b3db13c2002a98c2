#!/usr/bin/env python3
"""Wall time of NSOL, XSOL and MSD on planted instances at n in the
hundreds to thousands.

For each of the eight acceptance-suite families (`tests/helpers.
FAMILY_LANGUAGES`) and each size, one planted formula comes from
`dispatch_golden.planted` (2n, 4n or 8n atoms that two or three random
models satisfy) with a seed derived from `--seed`, the family and n.
NSOL runs from a random point drawn after the formula (almost never a
model, as in `dispatch_golden.large_records`), XSOL from the first
planted model, MSD on the formula alone, all in `auto` mode.  Two more
rows per size time Horn XSOL beyond the oracle's variable cap: the
n-cycle horn3(x_i, x_i, x_i+1) from 0^n (`iE_cyc`) and its dual
dualhorn3(x_i, x_i, x_i+1) from 1^n (`iV_cyc`), whose only other model
is the complement.  Before each solve the per-formula caches of
`minsol.clauses` and `minsol.decision` are emptied, so no solve reuses
another's clause sets.
One line per solve: family, problem, n, atoms, seconds, and the method,
guarantee and value (or the error class).  Instance generation is not
timed.

Usage: PYTHONPATH=src python scripts/probe_scaling.py [--sizes 300 1000] [--seed 1]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from dispatch_golden import planted  # noqa: E402
from helpers import FAMILY_LANGUAGES, lang  # noqa: E402  (dispatch_golden puts tests/ on the path)
from minsol import clauses, decision  # noqa: E402
from minsol.errors import MinsolError  # noqa: E402
from minsol.formulas import Assignment, Formula, make_formula  # noqa: E402
from minsol.msd import solve_msd  # noqa: E402
from minsol.nsol import solve_nsol  # noqa: E402
from minsol.outcome import SolveOutcome  # noqa: E402
from minsol.relations import DUALHORN3, HORN3, Relation  # noqa: E402
from minsol.xsol import solve_xsol  # noqa: E402


def _empty_formula_caches() -> None:
    for module in (clauses, decision):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _timed(
    family: str, problem: str, n: int, atoms: int, solve: Callable[[], SolveOutcome]
) -> None:
    _empty_formula_caches()
    t0 = time.perf_counter()
    try:
        out = solve()
        answer = f"{out.method} {out.guarantee.kind} {out.value}"
    except MinsolError as exc:
        answer = type(exc).__name__
    seconds = time.perf_counter() - t0
    print(f"{family:8} {problem:7} {n:>5} {atoms:>6} {seconds:>8.3f}  {answer}", flush=True)


def _cycle(rel: Relation, n: int) -> Formula:
    """rel(x_i, x_i, x_i+1) for i = 1..n, indices mod n."""
    return make_formula(lang(r=rel), n, [("r", [i, i, i % n + 1]) for i in range(1, n + 1)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[300, 1000])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'family':8} {'problem':7} {'n':>5} {'atoms':>6} {'seconds':>8}  answer")
    for n in args.sizes:
        for family, language in FAMILY_LANGUAGES.items():
            rng = random.Random(f"probe-scaling/{args.seed}/{family}/{n}")
            formula, model = planted(language, rng, n)
            point = Assignment.from_code(rng.getrandbits(n), n)
            for problem, solve in (
                ("NSOL", lambda: solve_nsol(formula, point)),
                ("XSOL", lambda: solve_xsol(formula, model)),
                ("MSD", lambda: solve_msd(formula)),
            ):
                _timed(family, problem, n, len(formula.atoms), solve)
        for family, rel, start in (("iE_cyc", HORN3, 0), ("iV_cyc", DUALHORN3, 1)):
            formula = _cycle(rel, n)
            _timed(family, "XSOL", n, n, lambda: solve_xsol(formula, Assignment((start,) * n)))


if __name__ == "__main__":
    main()
