#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload mine|serve|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark
binary from source into .bench_build/ (build output goes to stderr), runs
the workload in its own process with scratch files under .bench_out/, and
prints the workload's report followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. A traced run is two processes on the same inputs, an untraced pass
then a traced one; trace.overhead.<name> is the traced minus the untraced
value of each end-to-end metric, and the traced pass writes a Chrome
trace to .bench_out/trace-<workload>-<seed>.json. Exits non-zero, without
a result, when the build or the run fails, and with code 1 when an output
check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
# One run must end within 180 s; a traced run is two workload processes.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{' '.join(cmd)}: {err}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], timeout=850)
    return os.path.join(build_dir, "perfbench")


def run_workload(cmd, deadline):
    """Runs the workload binary in its own process group; returns
    (exit code, report lines, result). Kills the whole group if it is
    still running at `deadline` (time.monotonic())."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail(f"workload exited with {proc.returncode} and no result line")
    return proc.returncode, lines[:-1], raw


def add_overhead(traced, untraced, specs):
    """The traced pass's result, with trace.overhead.<name> (traced minus
    untraced) for every end-to-end metric, and the outcomes of both."""
    for spec in specs:
        name = spec["name"]
        before = untraced["metrics"].get(name)
        after = traced["metrics"].get("traced." + name)
        if before is None or after is None:
            fail(f"workload did not report metric {name}")
        traced["metrics"]["trace.overhead." + name] = {
            "value": after["value"] - before["value"], "unit": spec["unit"]}
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    return traced


def select_metrics(raw, specs):
    """The result line with exactly BENCHMARK.json's metrics, in order."""
    metrics = {}
    for spec in specs:
        got = raw["metrics"].get(spec["name"])
        if got is None:
            fail(f"workload did not report metric {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']}: unit {got['unit']} != "
                 f"{spec['unit']} in BENCHMARK.json")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mine", "serve", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    binary = build(root)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run_pass(trace):
        work = os.path.join(out_dir,
                            f"{args.workload}-{args.seed}-{os.getpid()}")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--dir", work]
        if trace:
            cmd += ["--trace-out", os.path.join(
                out_dir, f"trace-{args.workload}-{args.seed}.json")]
        try:
            return run_workload(cmd, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    code, lines, raw = run_pass(0)
    if args.trace:
        traced_code, traced_lines, traced = run_pass(1)
        raw = add_overhead(traced, raw, bench["end_to_end"])
        lines += traced_lines
        code = code or traced_code
    result = select_metrics(
        raw, bench["per_layer" if args.trace else "end_to_end"])
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
