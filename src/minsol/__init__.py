"""Hamming-distance optimization over Boolean conjunctive formulas.

Three problems over a constraint language: the nearest solution to an
arbitrary assignment, the nearest other solution to a given model, and
the minimum distance between two models.  The solvers classify the
language into Post's lattice of co-clones and dispatch the strongest
algorithm that classification admits, from exact polynomial routes to
constant-factor rounding, n-approximation, and a capped exhaustive
fallback, all cross-checked against a brute-force oracle.
"""

from .decision import another_sat, another_sat_below_n, sat_solve, tssat
from .errors import (
    InternalConsistencyError,
    LengthMismatch,
    MinsolError,
    NoPolyAlgorithm,
    NoSecondModel,
    NotAModel,
    ParseError,
    ShapeUnavailable,
    TooLarge,
    UniqueModel,
    Unsatisfiable,
)
from .formulas import (
    Assignment,
    Formula,
    dualize_formula,
    enumerate_models,
    hamming,
    load_formula,
    make_formula,
    oracle_optimize,
    parse_formula,
    satisfies,
)
from .msd import solve_msd
from .nsol import solve_nsol
from .outcome import Guarantee, SolveOutcome
from .postlattice import CoCloneLabel, Verdict, all_verdicts, classify, verdict
from .relations import (
    BoolFunction,
    Clause,
    Language,
    Relation,
    builtin_language,
    cnf_decompose,
    dualize,
    is_polymorphism,
    load_language,
    parse_language,
)
from .xsol import solve_xsol

__version__ = "0.1.0"
