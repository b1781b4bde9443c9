"""Self-test of the benchmark: two traced runs of each workload with the
same seed must report identical counts (every per-layer metric whose unit
is not seconds or a ratio).

Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed 1] [--seconds 1]

Exits 1 and names the counts that differ, 0 when all repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s: run failed (exit %d)\n%s"
                         % (workload, proc.returncode, proc.stderr))
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] not in ("s", "ratio")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    bad = 0
    for workload in WORKLOADS:
        first = counts(workload, args.seed, args.seconds)
        second = counts(workload, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second[k])
        print("%-17s %d counts, %s" % (workload, len(first),
                                      "identical" if not diff else
                                      "DIFFER: %s" % ", ".join(diff)))
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
