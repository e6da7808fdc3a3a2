#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload serve_tenants --seeds 1-5 [--trace 0] [--seconds S]

For every metric: the median of the runs and the distance between the first
and third quartiles as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json. Use it to check that the
benchmark is steady before trusting a comparison.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':40s} {'median':>14s} {'iqr/med':>8s} {'bound':>6s}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} {med:14.6g} {spread:8.3f} {str(bound or ''):>6s}  {units[name]}{flag}")
        if args.values:
            print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
