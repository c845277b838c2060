#!/usr/bin/env python3
"""Steadiness helper: run every workload repeatedly, alternating their
order, and print each metric's median, quartiles and spread.

The spread is the distance between the first and third quartile as a
share of the median, computed with statistics.quantiles(values, n=4),
one value per run and a different --seed per run. Compare it with each
end-to-end metric's bound in BENCHMARK.json: it should stay below a
third of the bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads ingest-proxy --seconds 20
    python3 perfbench/steady.py --runs 3 --trace 1

The benchmark is invoked exactly as BENCHMARK.json's command names it.
Every run's result line is appended to --log (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--log", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {w: {} for w in args.workloads}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        # rotate the order so no workload always runs first or last
        order = args.workloads[i % len(args.workloads):] + args.workloads[:i % len(args.workloads)]
        for w in order:
            result = run_once(bench["command"], w, seed, args.seconds, args.trace)
            failures += result["failed"]
            if args.log:
                with args.log.open("a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    worst = 0.0
    for w in args.workloads:
        print(f"\n== {w} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"{'metric':<34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  over a third of the bound" if spread > bound / 3 else ""
            print(f"{name:<34} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    print(f"\nfailed operations: {failures}; worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
