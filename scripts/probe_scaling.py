#!/usr/bin/env python3
"""Wall time of NSOL, XSOL and MSD on planted instances at n in the
hundreds to thousands.

For each of the eight acceptance-suite families (`tests/helpers.
FAMILY_LANGUAGES`) and each size, one planted formula comes from
`dispatch_golden.planted` (2n, 4n or 8n atoms that two or three random
models satisfy) with a seed derived from `--seed`, the family and n.
NSOL runs from a random point drawn after the formula (almost never a
model, as in `dispatch_golden.large_records`), XSOL from the first
planted model, MSD on the formula alone, all in `auto` mode.  Before
each solve the per-formula caches of `minsol.clauses` and
`minsol.decision` are emptied, so no solve reuses another's clause sets.
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

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from dispatch_golden import planted  # noqa: E402
from helpers import FAMILY_LANGUAGES  # noqa: E402  (dispatch_golden puts tests/ on the path)
from minsol import clauses, decision  # noqa: E402
from minsol.errors import MinsolError  # noqa: E402
from minsol.formulas import Assignment  # noqa: E402
from minsol.msd import solve_msd  # noqa: E402
from minsol.nsol import solve_nsol  # noqa: E402
from minsol.xsol import solve_xsol  # noqa: E402


def _empty_formula_caches() -> None:
    for module in (clauses, decision):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


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
                _empty_formula_caches()
                t0 = time.perf_counter()
                try:
                    out = solve()
                    answer = f"{out.method} {out.guarantee.kind} {out.value}"
                except MinsolError as exc:
                    answer = type(exc).__name__
                seconds = time.perf_counter() - t0
                line = f"{family:8} {problem:7} {n:>5} {len(formula.atoms):>6} {seconds:>8.3f}"
                print(f"{line}  {answer}", flush=True)


if __name__ == "__main__":
    main()
