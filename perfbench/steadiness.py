#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads mine,serve,ingest]
        [--seeds 1-10] [--seconds 20]

Run from the repository root. Runs perfbench/run.py once per workload and
seed (untraced), then prints a Markdown table per workload: for each
end-to-end metric, its median, first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json, and the values in seed
order. A spread above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="mine,serve,ingest")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n### `{workload}`: {len(runs)} runs of {seconds} s, "
              f"seeds {seeds[0]}-{seeds[-1]}\n")
        print("| metric | median | Q1 | Q3 | spread | bound | values in seed order |")
        print("|---|---|---|---|---|---|---|")
        for spec in bench["end_to_end"]:
            values = [r[spec["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = " (> bound/3)" if spread > spec["bound"] / 3 else ""
            listed = " ".join(f"{v:.4g}" for v in values)
            print(f"| `{spec['name']}` | {median:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f}{mark} | {spec['bound']} | {listed} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
