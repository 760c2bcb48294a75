#!/usr/bin/env python3
"""Steadiness check, the way the harness does it.

Runs each workload untraced ten times, each time with another seed, and
prints for every end-to-end metric the distance between the first and
third quartile of the ten values (statistics.quantiles, n=4) as a share
of their median, beside the metric's bound from BENCHMARK.json. A
spread is wanted below a third of its bound. Run from the repo root:

    python3 benchmark/steady.py [workload ...] [--runs N] [--first-seed S]
"""
import json
import statistics
import subprocess
import sys
import time

def main():
    args = sys.argv[1:]
    runs, first_seed, names = 10, 1, []
    while args:
        a = args.pop(0)
        if a == "--runs":
            runs = int(args.pop(0))
        elif a == "--first-seed":
            first_seed = int(args.pop(0))
        else:
            names.append(a)
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = names or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(first_seed, first_seed + runs):
            t = time.time()
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: not correct: {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"  {name} seed {seed}: {time.time() - t:.1f} s "
                  f"wall_s={result['metrics']['wall_s']['value']:.4f}", flush=True)
        print(f"{name}: {runs} runs")
        for m, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            share = spread / bounds[m]
            worst = max(worst, share if m != "setup_s" else 0.0)
            flag = "" if share < 1 / 3 else ("  <-- above a third" if share < 1 else "  <-- ABOVE BOUND")
            print(f"  {m:<26} median {med:>12.5f}  spread {spread:6.2%}  bound {bounds[m]:.0%}{flag}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")

if __name__ == "__main__":
    main()
