"""Run every workload untraced and traced, print every metric with its unit
and each workload's tracing overhead, and check every verdict.

    python3 perfbench/report.py [--seed 1] [--seconds 10]

Exits 0 only when every run gave the known answer on every operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"  {workload}: no result (exit code {proc.returncode})")
        return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed})")
        results = [run(workload, args.seed, args.seconds, trace) for trace in (0, 1)]
        for r in results:
            if r is None or not r["correct"]:
                all_correct = False
                continue
            for name, m in r["metrics"].items():
                print(f"  {name:<36} {m['value']:<24.6g} {m['unit']}")
        untraced, traced = results
        if untraced and traced:
            overhead = 1 - traced["metrics"]["trace.ops_per_s"]["value"] / untraced["metrics"]["ops_per_s"]["value"]
            print(f"  tracing overhead: {overhead:.1%} of untraced ops_per_s")
        verdict = all(r is not None and r["correct"] for r in results)
        print(f"  verdicts: {'all correct' if verdict else 'WRONG'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
