"""Outside-in layer tracing of an unmodified minsol.

Each traced layer's entry point is replaced, in every minsol module that
binds it, by a wrapper that records a span (name, start, end, parent
span, op id).  The dispatchers bind names at import time
(`from .lp import lp_solve`), so patching only the defining module would
miss the calls that matter; `install` therefore rebinds the attribute
wherever the same function object appears.  Spans are kept in one flat
array in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROUTES = {
    "nsol": ("nsol_2affine", "nsol_monotone", "nsol_affine_exact", "nsol_bijunctive_2approx",
             "nsol_ihsb_rounding", "nsol_feasible_napprox", "_oracle_fallback"),
    "xsol": ("xsol_bijunctive", "xsol_ihsb", "xsol_affine", "xsol_horn_turing",
             "xsol_anothersat_napprox", "_oracle_fallback"),
    "msd": ("msd_bijunctive", "msd_horn", "msd_affine", "msd_napprox", "_oracle_fallback"),
}

# (module, attribute) of every traced entry point; a dotted attribute is a method.
TARGETS: tuple[tuple[str, str], ...] = (
    ("formulas", "parse_formula"),
    ("relations", "parse_language"),
    ("nsol", "solve_nsol"),
    ("xsol", "solve_xsol"),
    ("msd", "solve_msd"),
    ("preprocess", "absorb_units"),
    ("postlattice", "classify"),
    ("postlattice", "verdict"),
    ("postlattice", "all_verdicts"),
    ("relations", "is_polymorphism"),
    ("relations", "cnf_decompose"),
    ("clauses", "cached_clauses"),
    ("clauses", "unit_propagate"),
    ("clauses", "twosat_model"),
    ("lp", "lp_solve"),
    ("flow", "FlowNetwork.max_flow"),
    ("gf2", "solve_affine"),
    ("gf2", "nullspace"),
    ("gf2", "min_weight_nonzero"),
    ("gf2", "nearest_codeword"),
    ("decision", "sat_solve"),
    ("decision", "another_sat"),
    ("decision", "tssat"),
    ("formulas", "oracle_optimize"),
    ("formulas", "model_codes"),
    ("formulas", "enumerate_models"),
    ("formulas", "satisfies"),
) + tuple((mod, fn) for mod, fns in ROUTES.items() for fn in fns)

# lru_cache wrappers whose misses are counted, via their public cache_info().
CACHES = {
    "clauses.clause_cache_misses": ("clauses", "_formula_clause_cache"),
    "relations.decompose_cache_misses": ("relations", "_decompose_cached"),
    "postlattice.classify_cache_misses": ("postlattice", "_classify_cached"),
    "relations.poly_cache_misses": ("relations", "_is_poly_cached"),
}

COUNTERS = (
    "lp.constraints",
    "lp.variables",
    "flow.arcs",
    "xsol.nested_nsol_calls",
    "formulas.models_scanned",
    "formulas.msd_pairs",
    "gf2.enumerated",
) + tuple(CACHES)


# span record layout: name id, parent span, op id, start, end
FIELDS = 5
END = FIELDS - 1

# counters derived from sizes rather than counted where the work happens
COMPUTED = ("formulas.msd_pairs", "gf2.enumerated")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for module, attr in TARGETS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(c, "count-computed" if c in COMPUTED else "count") for c in COUNTERS]
    out += [("trace.overhead_s", "s"), ("trace.unaccounted_s", "s")]
    return out


class Tracer:
    """Span recorder; records only while an op is open (`op >= 0`).

    Each span is five doubles in one flat array: name id, parent span,
    op id, start, end.  A span is appended with a single `extend` and
    closed with a single store, so a deadline signal between bytecodes
    never leaves the record half written; `end_op` closes spans the
    signal cut short.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.oracle_problem: dict[int, str] = {}
        self._caches: dict[str, Any] = {}
        self._undo: list[tuple[Any, str, Callable]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open_names(self) -> list[str]:
        return [self.names[int(self.spans[i * FIELDS])] for i in self.stack]

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        nid = self._id(name)
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(spans) // FIELDS
            if name == "formulas.oracle_optimize":
                tracer.oracle_problem[idx] = args[0] if args else kwargs.get("problem")
            stack.append(idx)
            spans.extend((nid, stack[-2] if len(stack) > 1 else -1, tracer.op, time.perf_counter(), 0.0))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * FIELDS + END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced entry point in every loaded minsol module."""
        modules = [m for n, m in sys.modules.items() if n == "minsol" or n.startswith("minsol.")]
        for module, attr in TARGETS:
            owner = sys.modules[f"minsol.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self.wrap(span_name(module, attr), original, HOOKS.get(attr)))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name(module, attr), original, HOOKS.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for metric, (module, attr) in CACHES.items():
            self._caches[metric] = getattr(sys.modules[f"minsol.{module}"], attr)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def begin_op(self, op_id: int) -> dict[str, int]:
        self.op = op_id
        self.op_start = len(self.spans) // FIELDS
        return {k: c.cache_info().misses for k, c in self._caches.items()}

    def end_op(self, before: dict[str, int]) -> None:
        self.op = -1
        now = time.perf_counter()
        for i in range(self.op_start, len(self.spans) // FIELDS):
            if self.spans[i * FIELDS + END] == 0.0:  # cut by a deadline
                self.spans[i * FIELDS + END] = now
        self.stack.clear()
        for k, c in self._caches.items():
            self.counters[k] += c.cache_info().misses - before[k]

    def _table(self) -> np.ndarray:
        return np.array(self.spans).reshape(-1, FIELDS)

    def _durations(self, scales: list[float]) -> np.ndarray:
        """Span durations, each scaled by its op's host-speed factor."""
        t = self._table()
        return (t[:, END] - t[:, END - 1]) * np.asarray(scales)[t[:, 2].astype(np.int64)]

    def self_times(self, scales: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) per span: duration minus child durations."""
        t = self._table()
        dur = self._durations(scales)
        parent = t[:, 1].astype(np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return t[:, 0].astype(np.int64), dur - child

    def top_level_seconds(self, scales: list[float]) -> float:
        return float(self._durations(scales)[self._table()[:, 1] < 0].sum())

    def metrics(self, scales: list[float]) -> dict[str, float]:
        """Calls, self time (nominal-host seconds, `scales` per op) and counters."""
        ids, self_s = self.self_times(scales)
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            i = self.name_ids.get(name)
            out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{name}.self_s"] = float(busy[i]) if i is not None else 0.0
        for c in COUNTERS:
            out[c] = int(self.counters.get(c, 0))
        return out

    def write(self, path: Path) -> None:
        """Spans as columns name, parent, op, start, end (see `names` for name ids)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), spans=self._table())


# --- counters recorded at span boundaries -------------------------------------


def _lp_sizes(tracer: Tracer, args: tuple, result: Any) -> None:
    problem = args[0]
    tracer.counters["lp.constraints"] += len(problem.constraints)
    tracer.counters["lp.variables"] += problem.num_vars


def _flow_arcs(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["flow.arcs"] += len(args[0].to) // 2


def _nested_nsol(tracer: Tracer, args: tuple, result: Any) -> None:
    if "xsol.xsol_horn_turing" in tracer.open_names():
        tracer.counters["xsol.nested_nsol_calls"] += 1


def _models(tracer: Tracer, count: int) -> None:
    tracer.counters["formulas.models_scanned"] += count
    for idx in reversed(tracer.stack):
        if idx in tracer.oracle_problem:
            if tracer.oracle_problem[idx] == "MSD":
                # computed: the pairwise MSD scan compares every model pair
                tracer.counters["formulas.msd_pairs"] += count * (count - 1) // 2
            break


def _model_codes(tracer: Tracer, args: tuple, result: Any) -> None:
    _models(tracer, len(result))


def _enumerated_models(tracer: Tracer, args: tuple, result: Any) -> None:
    _models(tracer, len(result.assignments))


def _gf2_enumerated(tracer: Tracer, args: tuple, result: Any) -> None:
    # computed: Gray-code enumeration visits 2**dim combinations
    tracer.counters["gf2.enumerated"] += 1 << len(args[0])


HOOKS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "lp_solve": _lp_sizes,
    "FlowNetwork.max_flow": _flow_arcs,
    "solve_nsol": _nested_nsol,
    "model_codes": _model_codes,
    "enumerate_models": _enumerated_models,
    "min_weight_nonzero": _gf2_enumerated,
    "nearest_codeword": _gf2_enumerated,
}
