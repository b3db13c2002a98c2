"""Build the classify_cold language pool and record each language's label.

The labels are what the library at the time of recording computes, with
no deadline; the benchmark checks later classifications against them.
Each language the workload runs also gets `cold_ms`: the median over
TIMING_PASSES passes of its op time from empty caches, in nominal-host
milliseconds, which the workload uses to spread slow languages evenly
over a run.  Run from the repository root:

    python3 perfbench/record_pool.py           # labels, then times if missing
    python3 perfbench/record_pool.py --retime  # times again

It rewrites perfbench/data/classify_pool.json.  Slow arity-6 languages
take minutes each, so the script keeps finished labels in a partial file
next to the output and resumes from it when restarted.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

import instances
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "data" / "classify_pool.json"
PARTIAL = OUT.with_suffix(".partial.jsonl")
POOL_SEED = 20150224
# (count, arities a relation may take, most relations per language)
STRATA = ((480, (2, 3, 4, 5), 2), (32, (6,), 1), (2520, (2, 3, 4, 5), 2))
TIMING_PASSES = 3


def pool_specs() -> list[list[tuple[int, int]]]:
    rng = random.Random(POOL_SEED)
    specs = []
    seen = set()
    for count, arities, max_rels in STRATA:
        made = 0
        while made < count:
            rels = []
            for _ in range(rng.randint(1, max_rels)):
                arity = rng.choice(arities)
                rels.append((arity, rng.randint(1, (1 << (1 << arity)) - 1)))
            key = tuple(sorted(set(rels)))
            if key in seen:
                continue
            seen.add(key)
            specs.append(rels)
            made += 1
    return specs


def cold_times(pool: list[dict]) -> None:
    """Set `cold_ms` on every entry the classify_cold workload runs, timed
    exactly as the workload times an op."""
    runner = run.Runner(run.import_library(), "classify_cold", HERE)
    signal.signal(signal.SIGALRM, run._on_alarm)
    timed = []
    for entry in pool:
        arity, op = instances.classify_op(entry)
        if arity <= instances.CLASSIFY_MAX_ARITY:
            timed.append((entry, op))
    samples: list[list[float]] = [[] for _ in timed]
    for n in range(TIMING_PASSES):
        results = run.run_loop(runner, [op for _, op in timed], None).results
        for result, times in zip(results, samples):
            if result.status != "answered":
                raise SystemExit(f"record_pool.py: {result.reason}")
            times.append(result.latency)
        print(f"timing pass {n + 1}/{TIMING_PASSES} done", flush=True)
    for (entry, _), times in zip(timed, samples):
        entry["cold_ms"] = round(1000 * statistics.median(times), 4)


def main() -> int:
    retime = "--retime" in sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from minsol import Language, Relation, classify

    done: dict[str, dict] = {}
    if OUT.exists():
        for entry in json.loads(OUT.read_text(encoding="utf-8"))["languages"]:
            done[json.dumps(entry["rels"])] = entry
    if PARTIAL.exists():
        for line in PARTIAL.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            done[json.dumps(entry["rels"])] = entry
    specs = pool_specs()
    with PARTIAL.open("a", encoding="utf-8") as partial:
        for i, rels in enumerate(specs):
            encoded = [[a, format(m, "x")] for a, m in rels]
            key = json.dumps(encoded)
            if key in done:
                continue
            lang = Language(tuple((f"r{j}", Relation(a, m)) for j, (a, m) in enumerate(rels)))
            t0 = time.perf_counter()
            label = str(classify(lang))
            seconds = time.perf_counter() - t0
            entry = {"rels": encoded, "label": label, "seed_s": round(seconds, 4)}
            done[key] = entry
            partial.write(json.dumps(entry) + "\n")
            partial.flush()
            print(f"{i + 1}/{len(specs)} {label} {seconds:.3f}s", flush=True)
    pool = [done[json.dumps([[a, format(m, "x")] for a, m in rels])] for rels in specs]
    if retime or any(
        "cold_ms" not in e and instances.classify_op(e)[0] <= instances.CLASSIFY_MAX_ARITY
        for e in pool
    ):
        cold_times(pool)
    OUT.write_text(
        json.dumps({"pool_seed": POOL_SEED, "languages": pool}, indent=0) + "\n",
        encoding="utf-8",
    )
    PARTIAL.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
