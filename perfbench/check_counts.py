"""Exact-count check: two traced runs of one workload and seed must give
identical call counts and counters.

    python3 perfbench/check_counts.py --workload invariants --seed 1

Prints every count that differs and each run's trace.overhead_frac, and
exits 1 when a count differs or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "25", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    runs = [traced(args.workload, args.seed) for _ in range(2)]
    ok = all(r["correct"] for r in runs)
    first, second = (r["metrics"] for r in runs)
    counts = [name for name, m in first.items() if m["unit"] not in
              ("s", "ratio")]
    for name in counts:
        if first[name]["value"] != second[name]["value"]:
            ok = False
            print(f"differs: {name} {first[name]['value']} "
                  f"{second[name]['value']}")
    overhead = [r["metrics"]["trace.overhead_frac"]["value"] for r in runs]
    print(f"{args.workload} seed {args.seed}: {len(counts)} counts "
          f"{'identical' if ok else 'NOT identical'}; "
          f"trace.overhead_frac {overhead[0]:.3f} {overhead[1]:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
