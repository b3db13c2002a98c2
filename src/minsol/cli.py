"""Command-line interface.

Exit codes: 0 success, 1 parse/input error, 2 no feasible answer
(unsatisfiable, unique model, no second model), 3 resource refusal
(instance over cap, or approx mode without a polynomial algorithm),
4 any other library error, such as an answer that fails re-verification
(`InternalConsistencyError`).  Solve results are re-verified against the
formula before printing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NoReturn

from .decision import another_sat, another_sat_below_n, sat_solve, tssat
from .dispatch import checked
from .errors import (
    Infeasible,
    InternalConsistencyError,
    LengthMismatch,
    MinsolError,
    NoPolyAlgorithm,
    NoSecondModel,
    NotAModel,
    ParseError,
    ResourceRefusal,
    TooLarge,
    UniqueModel,
    Unsatisfiable,
)
from .formulas import Assignment, Formula, load_formula, oracle_optimize
from .msd import solve_msd
from .nsol import solve_nsol
from .outcome import SolveOutcome
from .postlattice import PROBLEMS, all_verdicts, classify
from .relations import dualize, load_language
from .xsol import solve_xsol

_EXIT_REASONS = {
    Unsatisfiable: "unsatisfiable",
    UniqueModel: "unique_model",
    NoSecondModel: "no_second_model",
    TooLarge: "too_large",
    NoPolyAlgorithm: "no_poly_algorithm",
}


def _reason(exc: MinsolError) -> str:
    for klass, name in _EXIT_REASONS.items():
        if isinstance(exc, klass):
            return name
    return type(exc).__name__


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verify(formula: Formula, out: SolveOutcome, m: Assignment | None) -> None:
    """Re-check the answer against the formula as loaded from its file."""
    again = checked(out.problem, formula, m, out.witnesses(), out.guarantee, out.method)
    if again.value != out.value:
        raise InternalConsistencyError("verification failed: witness does not realize the value")


def _outcome_payload(out: SolveOutcome, elapsed_ms: float) -> dict:
    return {
        "schema": 1,
        "problem": out.problem,
        "value": out.value,
        "witnesses": [str(w) for w in out.witnesses()],
        "guarantee": {
            "kind": out.guarantee.kind,
            "ratio": None if out.guarantee.ratio is None else str(out.guarantee.ratio),
        },
        "verdict": None
        if out.verdict is None
        else {
            "problem": out.verdict.problem,
            "complexity": out.verdict.complexity,
            "algorithm": out.verdict.algorithm_tag,
            "param": out.verdict.param,
        },
        "method": out.method,
        "timing_ms": round(elapsed_ms, 3),
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    lang = load_language(args.lang)
    label = classify(lang)
    verdicts = all_verdicts(lang)
    payload = {
        "schema": 1,
        "label": str(label),
        "verdicts": {
            p: {
                "complexity": v.complexity,
                "algorithm": v.algorithm_tag,
                "param": v.param,
            }
            for p, v in verdicts.items()
        },
    }
    lines = [f"co-clone: {label}"]
    lines += [f"  {verdicts[p]}" for p in PROBLEMS]
    _emit(payload, args.json, lines)
    return 0


def _load_instance(args: argparse.Namespace, need_assignment: bool) -> tuple[Formula, Assignment | None]:
    formula = load_formula(args.formula)
    m = None
    if getattr(args, "assignment", None) is not None:
        m = Assignment.from_string(args.assignment)
        formula.check_length(m)
    if need_assignment and m is None:
        raise ParseError("this problem needs --assignment BITS")
    return formula, m


def _cmd_solve(args: argparse.Namespace, use_oracle: bool) -> int:
    problem = args.problem
    formula, m = _load_instance(args, need_assignment=problem in ("nsol", "xsol"))
    start = time.perf_counter()
    if use_oracle:
        out = oracle_optimize(problem.upper(), formula, m)
    elif problem == "nsol":
        out = solve_nsol(formula, m, args.mode)
    elif problem == "xsol":
        out = solve_xsol(formula, m, args.mode)
    else:
        out = solve_msd(formula, args.mode)
    elapsed = (time.perf_counter() - start) * 1000
    _verify(formula, out, m)
    payload = _outcome_payload(out, elapsed)
    lines = [
        f"value: {out.value}",
        f"witnesses: {' '.join(str(w) for w in out.witnesses())}",
        f"guarantee: {out.guarantee}",
        f"method: {out.method}",
    ]
    if out.verdict is not None:
        lines.append(f"verdict: {out.verdict}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    question = args.question
    formula, m = _load_instance(
        args, need_assignment=question in ("anothersat", "anothersat-lt-n")
    )
    start = time.perf_counter()
    if question == "sat":
        model = sat_solve(formula)
        answer = model is not None
        witnesses = [str(model)] if model is not None else []
    elif question == "anothersat":
        other = another_sat(formula, m)
        answer = other is not None
        witnesses = [str(other)] if other is not None else []
    elif question == "tssat":
        two = tssat(formula)
        answer = two.has_two
        witnesses = [str(w) for w in (two.witnesses or ())]
    else:
        answer = another_sat_below_n(formula, m)
        witnesses = []
    elapsed = (time.perf_counter() - start) * 1000
    payload = {
        "schema": 1,
        "question": question,
        "answer": answer,
        "witnesses": witnesses,
        "timing_ms": round(elapsed, 3),
    }
    lines = [f"answer: {'yes' if answer else 'no'}"]
    if witnesses:
        lines.append(f"witnesses: {' '.join(witnesses)}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    formula = load_formula(args.formula)
    lang = formula.effective_language()
    lines = []
    rel_payload = {}
    for name, rel in lang.relations:
        d = dualize(rel)
        rows = ",".join("".join(map(str, r)) for r in d.bit_rows())
        lines.append(f"rel {name} {d.arity} {rows}")
        rel_payload[name] = {"arity": d.arity, "tuples": rows.split(",")}
    lines.append(f"vars {formula.var_count}")
    atoms = []
    for name, vars_ in formula.atoms:
        lines.append(f"{name} {' '.join(map(str, vars_))}")
        atoms.append({"relation": name, "vars": list(vars_)})
    payload = {
        "schema": 1,
        "relations": rel_payload,
        "vars": formula.var_count,
        "atoms": atoms,
    }
    _emit(payload, args.json, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise `ParseError`, so they
    exit 1 and honour `--json` like every other input error."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minsol",
        description="Hamming-distance optimization over Boolean conjunctive formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="co-clone label and per-problem verdicts")
    p.add_argument("--lang", required=True, help="language file")
    p.add_argument("--json", action="store_true")

    for cmd, help_ in (("solve", "dispatch the strongest admissible algorithm"),
                       ("oracle", "brute-force optimum by enumeration")):
        p = sub.add_parser(cmd, help=help_)
        p.add_argument("problem", choices=["nsol", "xsol", "msd"])
        p.add_argument("--formula", required=True)
        p.add_argument("--assignment", help="bitstring, x1 first")
        if cmd == "solve":
            p.add_argument("--mode", choices=["auto", "exact", "approx"], default="auto")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("decide", help="decision procedures")
    p.add_argument("question", choices=["sat", "anothersat", "tssat", "anothersat-lt-n"])
    p.add_argument("--formula", required=True)
    p.add_argument("--assignment")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("dualize", help="print the dual language and formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = any(len(a) > 2 and "--json".startswith(a) for a in argv)  # or an abbreviation
    try:
        args = build_parser().parse_args(argv)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "solve":
            return _cmd_solve(args, use_oracle=False)
        if args.command == "oracle":
            args.mode = "exact"
            return _cmd_solve(args, use_oracle=True)
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "dualize":
            return _cmd_dualize(args)
        raise ParseError(f"unknown command {args.command!r}")
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParseError, LengthMismatch, NotAModel, OSError, ValueError) as exc:
        _emit({"schema": 1, "error": _reason(exc), "detail": str(exc)}, as_json,
              [f"error: {exc}"])
        return 1
    except Infeasible as exc:
        _emit({"schema": 1, "error": _reason(exc), "detail": str(exc)}, as_json,
              [f"infeasible: {_reason(exc)}: {exc}"])
        return 2
    except ResourceRefusal as exc:
        _emit({"schema": 1, "error": _reason(exc), "detail": str(exc)}, as_json,
              [f"refused: {_reason(exc)}: {exc}"])
        return 3
    except MinsolError as exc:
        _emit({"schema": 1, "error": _reason(exc), "detail": str(exc)}, as_json,
              [f"failed: {_reason(exc)}: {exc}"])
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
