#!/usr/bin/env python3
"""Build and run the lsched benchmark for one workload.

Builds perfbench/ (and the library modules it links) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
seeded workload for --seconds, checks that the binary's result carries
exactly the metrics BENCHMARK.json declares, and prints that result as
the last line of stdout. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "lsched_perfbench"


def run_timeout(seconds):
    """Wall-time allowance of one run: set-ups and solves overrun the
    measured seconds by up to one cycle, and a traced run also times
    its solves untraced and runs the baselines."""
    return 3 * max(seconds, 0) + 110


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def parse_args(spec):
    parser = argparse.ArgumentParser(
        description="Run one seeded lsched benchmark workload.",
        epilog="--trace 0 prints the end-to-end metrics, --trace 1 the "
        "per-layer metrics and writes the spans as JSON lines.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    # The binary checks the ranges of --seed and --seconds.
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int,
                        help="measured seconds (1..600)")
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--trace-file",
                        help="span output of a traced run (default: "
                        "<build dir>/traces/<workload>-seed<N>.jsonl)")
    parser.add_argument("--metric", action="append", default=[],
                        help="print only this metric (repeatable)")
    args = parser.parse_args()
    known = [m["name"] for m in declared(spec, args.trace)]
    for name in args.metric:
        if name not in known:
            parser.error(f"unknown metric '{name}' for --trace "
                         f"{args.trace} (known: {', '.join(known)})")
    return args


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    # Build output goes to stderr: stdout carries only the result.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", BINARY, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def checked_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in declared(spec, trace)}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    return result


def main():
    spec = load_spec()
    args = parse_args(spec)
    bdir = build_dir()
    build(bdir)

    cmd = [os.path.join(bdir, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_file = args.trace_file or os.path.join(
            bdir, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(os.path.abspath(trace_file)),
                    exist_ok=True)
        cmd += ["--trace-file", trace_file]
        print(f"perfbench: spans -> {trace_file}", file=sys.stderr)
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    if proc.returncode != 0:
        fail(f"{BINARY} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{BINARY} printed nothing")
    result = checked_result(lines[-1], spec, args.trace)
    if args.metric:
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if k in args.metric}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
