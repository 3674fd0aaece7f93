#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark `--runs` times per workload, each with another seed,
and prints for every end-to-end metric the median and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. Raw results go to `--out` as JSON lines, one per run.

    python3 perfbench/steadiness.py --workloads acq-multi,router-query \
        --runs 10 --out .bench_build/steadiness.jsonl

Run it from the repository root (or a benchmark checkout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, 0)
            runs.append(r)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": r}) + "\n")
                out.flush()
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)
        print(f"== {workload}: {len(runs)} runs")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(vals)
            flag = "" if sp <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {med:14.6g}  spread {sp:7.2%}  "
                  f"bound {bounds[name]:.0%}{flag}", flush=True)


if __name__ == "__main__":
    main()
