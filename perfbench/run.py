"""minsol benchmark: seeded closed-loop workloads, one client, no threads.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ./src).  One
client issues one op at a time and times the public calls a user makes:
`parse_formula` plus `solve_nsol`/`solve_xsol`/`solve_msd`, or
`parse_language` plus `classify` and `all_verdicts`.  Each op's output is
checked after its timer stops.  Ops run until `--seconds` of wall time
(ops plus their checks) have passed.

With `--trace 0` the last stdout line reports the end-to-end metrics.
With `--trace 1` the run picks its ops by running for a third of
`--seconds`, then replays them in chunks, each chunk once untraced and
once traced (every layer's entry points wrapped, see layertrace.py).  It
reports per-layer calls, self time and counters, plus the tracing
overhead (traced minus untraced replay time).  Details (environment, failure
reasons, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import instances
from layertrace import Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ladder", "classify_cold", "exhaustive", "desk_mix")
SETUP_REPEATS = 9
WARMUP_LANGUAGE = "rel or2 2 01,10,11\nrel impl 2 00,01,11\n"
# Per-op classification deadline, a guard against a hang: the library has
# no budget of its own yet.  It is over ten times the slowest recorded
# classify_cold language, so a correct op never reaches it; an op past it
# is cut and counted as failed, never filtered out.
CLASSIFY_DEADLINE_S = 20.0
MIN_OPS = 100
# peak RSS is read after this many ops, so that it does not grow with the
# number of ops a run reaches (the library's caches fill as ops go by)
RSS_OPS = 1000
REPLAY_CHUNKS = 10
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minsol
minsol.classify(minsol.parse_language(sys.argv[2]))
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import statistics, hostspeed
print(elapsed, statistics.median(hostspeed.probe() for _ in range(21)))
"""


class Deadline(Exception):
    """Raised by the interval timer when a classify op runs past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Result:
    """One judged op.  `latency` is in nominal-host seconds (hostspeed.py);
    `incorrect` marks a failed check or an undocumented error, not a
    deadline miss."""

    latency: float
    status: str  # answered | refused | failed
    value: int = 0
    exact: bool = False
    reason: str | None = None
    incorrect: bool = False


def measure_setup(src: Path) -> tuple[float, float]:
    """Median over fresh processes of `import minsol` plus one warm-up classify,
    in nominal-host seconds, and the raw median.

    The scale comes from the median probe over all the processes, not from
    each process's own probes: a fresh process's probe jumps between two
    speeds from one process to the next while its import time hardly moves.
    """
    raw, probes = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), WARMUP_LANGUAGE, str(HERE)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        elapsed, probe_s = map(float, proc.stdout.split())
        raw.append(elapsed)
        probes.append(probe_s)
    raw_s = statistics.median(raw)
    return raw_s * hostspeed.NOMINAL_S / statistics.median(probes), raw_s


def import_library():
    if not (SRC / "minsol" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no minsol sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import minsol

    if not Path(minsol.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"run.py: imported minsol from {minsol.__file__}, not from {SRC}")
    return minsol


def clear_caches(minsol) -> None:
    """Empty every lru_cache in minsol, then warm up as set-up does."""
    for name, module in list(sys.modules.items()):
        if name.startswith("minsol."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    value.cache_clear()
    minsol.classify(minsol.parse_language(WARMUP_LANGUAGE))


@dataclass
class Raw:
    """What one op returned, before its output is checked (latency as measured)."""

    latency: float
    output: object = None
    error: Exception | None = None
    formula: object = None


class Runner:
    """Executes ops (timed) and judges their outputs (untimed)."""

    def __init__(self, minsol, workload: str, work_dir: Path) -> None:
        self.minsol = minsol
        self.workload = workload
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Untimed set-up before an op.  Every classify op starts from empty
        caches, so its cost does not depend on which languages ran before."""
        if self.workload == "classify_cold":
            clear_caches(self.minsol)

    def execute(self, op, scale: float) -> Raw:
        """Time one op; `scale` is the current host-speed factor."""
        if self.workload == "classify_cold":
            return self._classify(op, scale)
        return self._solve(op)

    def _solve(self, op) -> Raw:
        ms = self.minsol
        formula = None
        t0 = time.perf_counter()
        try:
            formula = ms.parse_formula(op.text, base_dir=self.work_dir)
            if op.problem == "NSOL":
                out = ms.solve_nsol(formula, ms.Assignment.from_string(op.assignment), op.mode)
            elif op.problem == "XSOL":
                out = ms.solve_xsol(formula, ms.Assignment.from_string(op.assignment), op.mode)
            else:
                out = ms.solve_msd(formula, op.mode)
        except Exception as exc:  # judged below: a refusal or a failure
            return Raw(time.perf_counter() - t0, error=exc, formula=formula)
        return Raw(time.perf_counter() - t0, out, formula=formula)

    def _classify(self, op, scale: float) -> Raw:
        ms = self.minsol
        # the deadline is in nominal-host time, like every reported time
        signal.setitimer(signal.ITIMER_REAL, CLASSIFY_DEADLINE_S / scale)
        t0 = time.perf_counter()
        try:
            lang = ms.parse_language(op.text)
            out = (ms.classify(lang), ms.all_verdicts(lang))
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # judged below: a deadline miss or a failure
            return Raw(time.perf_counter() - t0, error=exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Raw(time.perf_counter() - t0, out)

    def judge(self, op, raw: Raw) -> Result:
        """The op's result, with its latency as measured (not yet scaled)."""
        ms = self.minsol
        latency = raw.latency
        if isinstance(raw.error, Deadline):
            return Result(latency, "failed", reason=f"{op.cell}: deadline")
        if isinstance(raw.error, (ms.TooLarge, ms.NoPolyAlgorithm)):
            return Result(latency, "refused", reason=f"{op.cell}: {raw.error!r}")
        if raw.error is not None:
            return Result(latency, "failed", reason=f"{op.cell}: {raw.error!r}", incorrect=True)
        if self.workload == "classify_cold":
            label, verdicts = raw.output
            reason = checks.check_classify(op, label, verdicts)
            # an op's value: how many of the three problems go to exhaustive search
            value = sum(verdicts[p].algorithm_tag == "exhaustive_fallback" for p in checks.SOLVED)
            exact = True
        else:
            out = raw.output
            reason = checks.check_solve(ms, op, raw.formula, out, self.workload == "ladder")
            value, exact = out.value, out.guarantee.kind == "exact"
        if reason is not None:
            return Result(latency, "failed", reason=reason, incorrect=True)
        return Result(latency, "answered", value, exact)


def op_stream(workload: str, seed: int, work_dir: Path):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "classify_cold":
        return instances.classify_cold(rng, instances.load_pool(HERE / "data" / "classify_pool.json"))
    files = instances.LanguageFiles(work_dir)
    return instances.distinct(getattr(instances, workload)(rng, files))


@dataclass
class Pass:
    ops: list
    results: list[Result]
    cells: dict[str, list[float]]
    scales: list[float]  # host-speed factor applied to each op
    peak_rss_kb: int = 0  # ru_maxrss after RSS_OPS ops, or at the end

    def op_seconds(self) -> float:
        """Summed op latency in nominal-host seconds."""
        return sum(r.latency for r in self.results)


def run_loop(
    runner: Runner, ops, seconds: float | None, tracer: Tracer | None = None, first_id: int = 0
) -> Pass:
    """Run ops until `seconds` of wall time pass (None: run every op given).

    With a tracer, op i of this call is recorded as op `first_id + i`.
    """
    done_ops, results, spans = [], [], []
    speed = hostspeed.HostSpeed()
    stop = None if seconds is None else time.perf_counter() + seconds
    for op in ops:
        if stop is not None and time.perf_counter() >= stop:
            break
        runner.prepare()
        scale = speed.scale()
        start = time.perf_counter()
        if tracer is None:
            raw = runner.execute(op, scale)
        else:
            before = tracer.begin_op(first_id + len(results))
            try:
                raw = runner.execute(op, scale)
            finally:
                tracer.end_op(before)
        spans.append((start, time.perf_counter()))
        results.append(runner.judge(op, raw))
        done_ops.append(op)
        if len(results) == RSS_OPS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        speed.tick()
    if len(results) < RSS_OPS:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each op is scaled by the probes just before and just after it
    speed.finish()
    cells, scales = {}, []
    for op, result, (start, end) in zip(done_ops, results, spans):
        scale = speed.scale_around(start, end)
        result.latency *= scale
        scales.append(scale)
        cells.setdefault(op.cell, []).append(result.latency)
    return Pass(done_ops, results, cells, scales, peak_rss_kb)


def merge(passes: list[Pass]) -> Pass:
    cells: dict[str, list[float]] = {}
    for p in passes:
        for cell, times in p.cells.items():
            cells.setdefault(cell, []).extend(times)
    return Pass(
        [op for p in passes for op in p.ops],
        [r for p in passes for r in p.results],
        cells,
        [s for p in passes for s in p.scales],
    )


def paired_replay(runner: Runner, ops: list) -> tuple[Tracer, Pass, Pass]:
    """Replay `ops` in chunks, each chunk once untraced and once traced.

    Which replay of a chunk goes first alternates, and caches are cleared
    before every replay, so host-speed drift and warm caches cancel out of
    the traced-minus-untraced difference.
    """
    tracer = Tracer()
    size = max(1, math.ceil(len(ops) / REPLAY_CHUNKS))
    traced, untraced = [], []
    for k, start in enumerate(range(0, len(ops), size)):
        chunk = ops[start : start + size]
        for with_trace in (False, True) if k % 2 == 0 else (True, False):
            clear_caches(runner.minsol)
            if with_trace:
                tracer.install()
                traced.append(run_loop(runner, chunk, None, tracer, first_id=start))
                tracer.uninstall()
            else:
                untraced.append(run_loop(runner, chunk, None))
    return tracer, merge(traced), merge(untraced)


def percentile(results: list[Result], q: float) -> float:
    """Nearest-rank percentile, failed ops ranked above every other op."""
    ranked = sorted(results, key=lambda r: (r.status == "failed", r.latency))
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)].latency


def end_to_end(run: Pass, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric; times are in nominal-host units (see hostspeed.py)."""
    results = run.results
    n = len(results)
    answered = [r for r in results if r.status == "answered"]
    failed = sum(r.status == "failed" for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / run.op_seconds(), "1/s"),
        "latency_p50_ms": (1000 * percentile(results, 0.50), "ms"),
        "latency_p90_ms": (1000 * percentile(results, 0.90), "ms"),
        "ok_share": (1 - failed / n, "ratio"),
        "answered_share": (len(answered) / n, "ratio"),
        "exact_share": (sum(r.exact for r in answered) / max(1, len(answered)), "ratio"),
        "value_mean": (sum(r.value for r in answered) / max(1, len(answered)), "count"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB"),
    }


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed)
    minsol = import_library()
    setup_s, setup_raw_s = measure_setup(SRC)
    minsol.classify(minsol.parse_language(WARMUP_LANGUAGE))
    signal.signal(signal.SIGALRM, _on_alarm)

    work_dir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(minsol, args.workload, work_dir)
        stream = op_stream(args.workload, args.seed, work_dir)
        if not args.trace:
            run = run_loop(runner, stream, args.seconds)
            metrics = end_to_end(run, setup_s)
            passes = [run]
        else:
            # The first pass picks the ops and warms the interpreter.
            first = run_loop(runner, stream, args.seconds / 3)
            tracer, run, untraced = paired_replay(runner, first.ops)
            layer = tracer.metrics(run.scales)
            layer["trace.overhead_s"] = run.op_seconds() - untraced.op_seconds()
            layer["trace.unaccounted_s"] = run.op_seconds() - tracer.top_level_seconds(run.scales)
            metrics = {name: (layer[name], unit) for name, unit in metric_names()}
            tracer.write(OUT / f"spans-{tag}.npz")
            passes = [first, untraced, run]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = run.results
    failures = [r.reason for r in results if r.status == "failed"]
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "host_scale_median": statistics.median(run.scales),
        "setup_raw_s": setup_raw_s,
        "attempted": len(results),
        "failed_share": len(failures) / len(results),
        "refused_share": sum(r.status == "refused" for r in results) / len(results),
        "failures": failures[:50],
        "cells_ms": {
            c: {"ops": len(t), "median": 1000 * statistics.median(t), "max": 1000 * max(t)}
            for c, t in sorted(run.cells.items())
        },
        "metrics": reported,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if len(results) < MIN_OPS:
        print(f"warning: only {len(results)} ops ran; percentiles need {MIN_OPS}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ops={len(results)} env={json.dumps(env)}")
    print(f"failed_share={detail['failed_share']:.4f} refused_share={detail['refused_share']:.4f}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    for reason in failures[:5]:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": not any(r.incorrect for p in passes for r in p.results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
