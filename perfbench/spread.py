"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload ladder --seeds 1-10

Runs perfbench/run.py once per seed (sequentially, from the repository
root) and prints, per end-to-end metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound from BENCHMARK.json.  Raw results are appended to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with log.open("a", encoding="utf-8") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("inf")
        flag = "" if share < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:16s} median {med:12.6g}  iqr/median {share:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
