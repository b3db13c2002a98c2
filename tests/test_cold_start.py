"""A fresh process answers every problem without importing numpy.

Only the functions that take or return arrays (`membership_table`,
`gf2.popcount`, `model_codes` and the MSD oracle's pairwise scan) load
it, on their first call.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import minsol

SCRIPT = """
import sys

import minsol
import minsol.cli
from minsol import gf2
from minsol.decision import another_sat, sat_solve, tssat
from minsol.formulas import Assignment, enumerate_models, make_formula, model_codes, satisfies
from minsol.relations import BUILTIN_RELATIONS, Language, cnf_decompose, even_rel

nae3 = Language((("nae3", BUILTIN_RELATIONS["nae3"]),))
f = make_formula(nae3, 6, [("nae3", (1, 2, 3)), ("nae3", (3, 4, 5)), ("nae3", (5, 6, 1))])
m = Assignment.from_string("011010")
assert minsol.classify(nae3).name == "iN2"
assert minsol.all_verdicts(nae3)
assert minsol.solve_nsol(f, Assignment.from_string("000000")).value == 2
xsol = minsol.solve_xsol(f, m).witness
assert satisfies(f, xsol) and xsol != m
assert minsol.solve_msd(f).value == 1
assert sat_solve(f) == Assignment.from_string("001001")
assert another_sat(f, m) not in (None, m) and tssat(f).satisfiable
listed = enumerate_models(f, cap=2)
assert [str(a) for a in listed.assignments] == ["001001", "001010"] and listed.truncated
assert len(cnf_decompose(even_rel(4), "parity")) == 1
assert "numpy" not in sys.modules, "numpy loaded before any array was asked for"

assert model_codes(f).tolist()[:3] == [0b001001, 0b001010, 0b001011]
assert "numpy" in sys.modules
import numpy as np

assert gf2.popcount(np.array([0, 7, 1 << 31 | 1])).tolist() == [0, 3, 2]
"""


def test_numpy_loads_only_with_the_first_array():
    src = str(Path(minsol.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
