"""Check that two traced runs on one seed give identical exact counters.

Run from the root of a netcap checkout:

    python3 perfbench/selftest.py [--workload corollary] [--seed 1]

Every per-layer metric that is not a time (calls, box vectors, oracle calls,
branch-and-bound nodes, feasible points and the ratios between them) must
read the same in both runs.  Exits 0 when they do, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import DEFAULT_SEED
from tracing import TIME_UNITS

RUN = Path(__file__).resolve().parent / "run.py"


def counters(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: traced run exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] not in TIME_UNITS | {"%"}
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    ok = True
    for workload in [args.workload] if args.workload else sorted(workloads.RUNNERS):
        first, second = counters(workload, args.seed), counters(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok &= not differ and first.keys() == second.keys()
        print(f"{workload}: {len(first)} counters, " + (f"differ: {differ}" if differ else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
