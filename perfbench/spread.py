#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report, for
each metric, the median and the quartile spread (Q3 - Q1) / median, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/spread.py --workload read_long_keys --seeds 10 [--first-seed 1]
        [--seconds 10] [--trace 0] [--bin PATH]

Without ``--bin`` it builds the benchmark with cargo first. Run it from the
root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()

    binary = args.bin
    if binary is None:
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"],
            check=True,
        )
        target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
        binary = os.path.join(target, "release", "perfbench")

    values = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.monotonic()
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            check=True, capture_output=True, text=True,
        ).stdout
        walls.append(time.monotonic() - start)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {walls[-1]:.1f} s wall {shown}", file=sys.stderr)

    print(f"workload {args.workload}: {args.seeds} seeds, "
          f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} median {med:14.6g}  spread {spread * 100:6.2f}%  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")


if __name__ == "__main__":
    main()
