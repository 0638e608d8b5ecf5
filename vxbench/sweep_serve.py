#!/usr/bin/env python3
"""One-off serve-mix rate sweep.

Runs the serve-mix workload at a ladder of arrival rates and prints, for
each rate, the all-request latency p50/p95, the generator's start lag and
whether the backlog grew. The highest rate with p95 <= 500 ms and a steady
backlog is the sweep result; the gated workload runs at about 70% of it
(kServeRate in workloads.cc, recorded in design.json).

    python3 vxbench/sweep_serve.py [--seed N] [--seconds S] [RATE ...]

Build first (python3 vxbench/run.py builds on first use).
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("rates", type=float, nargs="*",
                    default=[8, 12, 16, 20, 24, 28])
    args = ap.parse_args()
    build = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    binary = os.path.join(build, "cmake", "vxbench")
    print("rate_rps p50_ms p95_ms beyond_p95 start_lag_p95_ms backlog limit")
    for rate in args.rates:
        out = subprocess.run(
            [binary, "--workload", "serve-mix", "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--rate",
             str(rate)],
            capture_output=True, text=True, check=False).stdout
        lat = re.search(r"latency p50 ([\d.]+) ms, p95 ([\d.]+) ms "
                        r"\(n=\d+, (\d+) beyond p95\); limit p95 <= 500 ms: "
                        r"(\w+)", out)
        lag = re.search(r"start lag p95 ([\d.]+) ms; backlog (\w+)", out)
        if not lat or not lag:
            print(f"{rate:g} failed")
            continue
        print(f"{rate:g} {lat.group(1)} {lat.group(2)} {lat.group(3)} "
              f"{lag.group(1)} {lag.group(2)} {lat.group(4)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
