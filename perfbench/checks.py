"""Output checks, run outside the timed region.

Each returns None when the output is right, else a one-line reason.
Everything is evaluated from the generated relations and atoms,
independently of the library: witness membership, and wherever
n <= ORACLE_N the exact optimum, against which the stated guarantee is
checked.  The optimum comes from enumerating all 2**n assignments; MSD
is a radius search over a model bitmap (|models| * sum C(n, d) lookups),
not the library's pairwise scan, which at n = 15-20 costs seconds and
hundreds of MB per check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from instances import ClassifyOp, SolveOp, atom_mask, holds

ORACLE_N = 20
SOLVED = ("NSOL", "XSOL", "MSD")


def _model(op: SolveOp, bits: tuple[int, ...]) -> bool:
    return all(holds(op.rels[name], bits, vs) for name, vs in op.atoms)


def _distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x != y for x, y in zip(a, b))


def _codes(op: SolveOp) -> np.ndarray:
    """All model codes, variable v at bit n - v (first variable most significant)."""
    codes = np.arange(1 << op.n, dtype=np.int64)
    ok = np.ones(len(codes), dtype=bool)
    for name, vs in op.atoms:
        ok &= atom_mask(codes, op.n, op.rels[name], vs)
    return codes[ok]


def _code(bits: tuple[int, ...]) -> int:
    return int("".join(map(str, bits)), 2)


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a.astype(np.uint64))


def optimum(op: SolveOp, m: tuple[int, ...] | None) -> int:
    codes = _codes(op)
    if op.problem == "NSOL":
        return int(_popcount(codes ^ _code(m)).min())
    if op.problem == "XSOL":
        others = codes[codes != _code(m)]
        return int(_popcount(others ^ _code(m)).min())
    member = np.zeros(1 << op.n, dtype=bool)
    member[codes] = True
    for d in range(1, op.n + 1):
        for flip in itertools.combinations(range(op.n), d):
            if member[codes ^ sum(1 << b for b in flip)].any():
                return d
    raise ValueError("MSD optimum needs two models")


def guarantee_holds(kind: str, ratio: Fraction | None, value: int, opt: int, n: int) -> bool:
    if kind == "exact":
        return value == opt
    if kind == "ratio":
        return value <= ratio * opt
    if kind == "n_approx":
        return value <= n * opt
    return False


def check_solve(minsol, op: SolveOp, formula, out, ladder: bool) -> str | None:
    w1 = out.witness.bits
    if len(w1) != op.n or not _model(op, w1):
        return f"{op.cell}: witness is not a model"
    m = None if op.assignment is None else tuple(int(c) for c in op.assignment)
    if op.problem == "MSD":
        if out.witness2 is None:
            return f"{op.cell}: MSD returned one witness"
        w2 = out.witness2.bits
        if len(w2) != op.n or not _model(op, w2):
            return f"{op.cell}: second witness is not a model"
        if w1 == w2:
            return f"{op.cell}: MSD witnesses are equal"
        realized = _distance(w1, w2)
    else:
        if op.problem == "XSOL" and w1 == m:
            return f"{op.cell}: XSOL returned its input"
        realized = _distance(w1, m)
    if realized != out.value:
        return f"{op.cell}: value {out.value} but witnesses are {realized} apart"
    if op.n <= ORACLE_N:
        opt = optimum(op, m)
        g = out.guarantee
        if not guarantee_holds(g.kind, g.ratio, out.value, opt, op.n):
            return f"{op.cell}: value {out.value} breaks {g} against optimum {opt}"
    if ladder and op.problem == "MSD" and out.guarantee.kind == "exact":
        xsol = minsol.solve_xsol(formula, minsol.Assignment(tuple(map(int, op.planted[0]))))
        if out.value > xsol.value:
            return f"{op.cell}: MSD {out.value} exceeds XSOL {xsol.value} on the same formula"
    return None


def check_classify(op: ClassifyOp, label, verdicts) -> str | None:
    if str(label) != op.label:
        return f"{op.cell}: label {label} but the recorded label is {op.label}"
    if set(verdicts) != {"NSOL", "XSOL", "MSD", "SAT", "ANOTHERSAT", "TSSAT"}:
        return f"{op.cell}: verdicts cover {sorted(verdicts)}"
    return None
