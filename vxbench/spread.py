#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed and prints, per end-to-end metric, the
median of the values and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, beside the bound in
BENCHMARK.json. A spread below a third of its bound is steady.

    python3 vxbench/spread.py --workload <name> [--seeds 1,2,3,4,5]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds",
             str(spec["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True, check=False, cwd=ROOT)
        last = proc.stdout.strip().split("\n")[-1]
        result = json.loads(last)
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} attempted {result['attempted']} failed "
              f"{result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "steady" if spread < bound / 3 else
            "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:34s} median {med:14.6f} spread {spread:8.4f} "
              f"bound {bound} {flag}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
