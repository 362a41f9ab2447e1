"""Run the benchmark several times in fresh processes and print its spread.

    python3 perfbench/spread.py [--workloads sign,tropical,cli] [--seeds 1-10]
                                [--seconds 30] [--trace 0]

Run from the root of a checkout.  Each (workload, seed) is one fresh
``run.py`` process, run one after another.  For every workload and
metric it prints the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, which is what the bounds in ``BENCHMARK.json``
are set from.  The raw results go to ``.perfbench-out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sign,tropical,cli")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        runs = results.setdefault(workload, [])
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(seed), "--seconds", args.seconds,
                                   "--trace", args.trace], capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = Path(".perfbench-out") / f"spread-{stamp}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\n{'workload':10} {'metric':45} {'median':>14} {'IQR/median':>11}")
    for workload, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"{workload:10} {metric:45} {median:14.6g} {spread:11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
