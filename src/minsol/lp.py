"""Exact LP relaxation of covering rows and implications over the unit box.

The hitting-set rounding minimizes a linear objective over [0,1]^n under
covering rows sum(x_v for v in C) >= 1 and implications x_a <= x_b.  A
bounded-variable simplex on sparse rows of fractions.Fraction solves it,
so rounding thresholds like 1/k are compared bit-exactly.  The box is
kept by bound flips, not by rows.  The all-ones point satisfies every
such system, so the simplex starts there with the surplus variables
basic: there is no phase 1 and no infeasible outcome.  Pivoting takes the
most negative reduced cost (lowest index on ties) and falls back to
Bland's rule after a run of degenerate pivots, which keeps every run
deterministic and finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError

_BLAND_TRIGGER = 12

Num = int | Fraction


@dataclass(frozen=True)
class LpProblem:
    """Minimize sum(objective[v] * x_v) over [0,1]^num_vars, variables 0-based.

    Each constraint is a clause `(pos, neg)` read as its LP relaxation
    sum(x_v for v in pos) + sum(1 - x_v for v in neg) >= 1: a covering row
    when `neg` is empty, the implication x_a <= x_b when it is `((b,), (a,))`.
    """

    num_vars: int
    constraints: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    objective: tuple[int, ...]


def lp_solve(problem: LpProblem) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum and an optimal point.

    Dictionary form: basic variable `basis[i]` equals `beta[i]` plus
    `rows[i]` applied to the nonbasic variables, which all sit at 0.  A
    structural x_v is stored as y_v = 1 - x_v while `flipped[v]`; slack
    n + i is the surplus of constraint i.  Reduced costs `red` keep their
    nonzero entries only.
    """
    n = problem.num_vars
    rows: list[dict[int, Num]] = []
    beta: list[Num] = []
    for pos, neg in problem.constraints:
        if not all(0 <= v < n for v in pos + neg):
            raise InternalConsistencyError("constraint variable out of range")
        if neg and (len(neg), len(pos)) != (1, 1):
            raise InternalConsistencyError("constraint is neither a cover nor an implication")
        # at x = 1, i.e. y = 0: surplus = sum(1 - y_pos) - 1 + sum(y_neg)
        row: dict[int, Num] = {}
        for v in pos:
            row[v] = row.get(v, 0) - 1
        for v in neg:
            row[v] = row.get(v, 0) + 1
        rows.append({v: a for v, a in row.items() if a})
        beta.append(len(pos) - 1)
    m = len(rows)
    basis = list(range(n, n + m))
    flipped = [True] * n
    red: dict[int, Num] = {v: -c for v, c in enumerate(problem.objective) if c}
    col_rows: list[set[int]] = [set() for _ in range(n + m)]
    for i, row in enumerate(rows):
        for v in row:
            col_rows[v].add(i)

    degenerate_run = 0
    while True:
        if degenerate_run >= _BLAND_TRIGGER:
            enter = min((c for c, d in red.items() if d < 0), default=-1)
        else:
            enter, best = -1, 0
            for c, d in red.items():
                if d < best or (d == best and d < 0 and c < enter):
                    enter, best = c, d
        if enter == -1:
            break
        # the step: the entering variable's own bound, or the first basic bound
        step: Num | None = 1 if enter < n else None
        leave = -1
        for i in col_rows[enter]:
            a, b = rows[i][enter], basis[i]
            if a < 0:
                t = Fraction(beta[i], -a)
            elif b < n:
                t = Fraction(1 - beta[i], a)
            else:
                continue
            if step is None or t < step or (t == step and leave >= 0 and b < basis[leave]):
                step, leave = t, i
        if step is None:
            raise InternalConsistencyError("unbounded LP despite box bounds")
        degenerate_run = degenerate_run + 1 if step == 0 else 0
        if leave == -1:  # x_enter moves to its other bound: store its complement
            for i in col_rows[enter]:
                beta[i] += rows[i][enter]
                rows[i][enter] = -rows[i][enter]
            red[enter] = -red[enter]
            flipped[enter] = not flipped[enter]
            continue
        b = basis[leave]
        if rows[leave][enter] > 0:  # b leaves at its upper bound 1: store 1 - x_b
            beta[leave] = 1 - beta[leave]
            rows[leave] = {c: -a for c, a in rows[leave].items()}
            flipped[b] = not flipped[b]
        _pivot(rows, beta, red, basis, col_rows, leave, enter)

    y = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = beta[i]
    point = [Fraction(1 - y[v] if flipped[v] else y[v]) for v in range(n)]
    return sum((c * x for c, x in zip(problem.objective, point)), Fraction(0)), point


def _pivot(
    rows: list[dict[int, Num]],
    beta: list[Num],
    red: dict[int, Num],
    basis: list[int],
    col_rows: list[set[int]],
    r: int,
    col: int,
) -> None:
    """Exchange basic `basis[r]` (leaving at 0) for nonbasic `col`."""
    row = rows[r]
    a = row.pop(col)
    inv = a if a in (1, -1) else 1 / Fraction(a)
    out = basis[r]
    new = {c: -x * inv for c, x in row.items()}
    new[out] = inv
    new_beta = -beta[r] * inv
    for c in row:
        col_rows[c].discard(r)
    rows[r], beta[r], basis[r] = new, new_beta, col
    col_rows[col].discard(r)
    for i in col_rows[col]:
        target = rows[i]
        f = target.pop(col)
        beta[i] += f * new_beta
        for c, x in new.items():
            v = target.get(c, 0) + f * x
            if v:
                if c not in target:
                    col_rows[c].add(i)
                target[c] = v
            elif c in target:
                del target[c]
                col_rows[c].discard(i)
    col_rows[col] = set()
    for c in new:
        col_rows[c].add(r)
    f = red.pop(col, 0)
    if f:
        for c, x in new.items():
            v = red.get(c, 0) + f * x
            if v:
                red[c] = v
            else:
                red.pop(c, None)
