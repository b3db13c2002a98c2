#!/usr/bin/env python3
"""Cold start: the wall time a fresh process pays before its first answer.

Two rows, each the median (and range) over RUNS fresh processes:

- `import+classify`: `import minsol` plus one `classify` of a two-relation
  language, timed inside the process, as `perfbench/run.py` times its
  `setup_s`;
- `cli solve msd`: the whole `python -m minsol.cli solve msd --formula F
  --json` process, timed from outside, on a 6-variable nae3 formula that
  the oracle answers.

The times are printed and not gated, as wall-clock gates are flaky on
shared machines.  The probe exits 1 if the import or the classification
loaded numpy, which only the array functions (`model_codes`,
`gf2.popcount`, `membership_table` and the MSD oracle's pairwise scan)
should load, or if the CLI call fails or answers other than MSD 1.

Usage: python scripts/probe_startup.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 9
IMPORT_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import minsol
minsol.classify(minsol.parse_language("rel or2 2 01,10,11\\nrel impl 2 00,01,11\\n"))
print(time.perf_counter() - t0, "numpy" in sys.modules)
"""
FORMULA = "lang builtin\nvars 6\nnae3 1 2 3\nnae3 3 4 5\nnae3 5 6 1\n"


def row(name: str, seconds: list[float]) -> str:
    ms = sorted(s * 1000 for s in seconds)
    return f"{name:16} {statistics.median(ms):>9.1f} {ms[0]:>9.1f} {ms[-1]:>9.1f}"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    ok = True
    imports = []
    for _ in range(RUNS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        imports.append(float(out[0]))
        if out[1] == "True":
            ok = False
    cli = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nae3.cf"
        path.write_text(FORMULA, encoding="utf-8")
        argv = [sys.executable, "-m", "minsol.cli", "solve", "msd", "--formula", str(path), "--json"]
        for _ in range(RUNS):
            t0 = time.perf_counter()
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            cli.append(time.perf_counter() - t0)
            if done.returncode != 0 or json.loads(done.stdout).get("value") != 1:
                print(f"cli solve failed ({done.returncode}): {done.stdout}{done.stderr}")
                ok = False
    print(f"{'case':16} {'median_ms':>9} {'min_ms':>9} {'max_ms':>9}   ({RUNS} fresh processes each)")
    print(row("import+classify", imports))
    print(row("cli solve msd", cli))
    if not ok:
        print("numpy loaded at import, or the CLI call failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
