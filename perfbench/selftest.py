#!/usr/bin/env python3
"""Self-test of the benchmark: the counts a traced run reports must repeat.

    python3 perfbench/selftest.py

Runs every workload twice, traced, for SECONDS with seed SEED, and
fails (exit 1) unless these counts are identical between the two runs:
series terms, series refusals, atoms out of the spectral builds, sampler
draws and the failed-op count.  Timings are not compared.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("build-measure", "series-queries", "cli-mix")
EXACT = ("series.terms", "series.refusals", "spectral.atoms_out", "sampler.draws")
SEED = 7
SECONDS = 2.0


def counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: incorrect answers")
    found = {name: result["metrics"][name]["value"] for name in EXACT}
    found["failed"] = result["failed"]
    found["attempted"] = result["attempted"]
    return found


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first = counts(workload)
        second = counts(workload)
        same = first == second
        ok &= same
        print(f"{workload}: {'repeat' if same else 'DIFFER'} {json.dumps(first)}"
              + ("" if same else f" vs {json.dumps(second)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
