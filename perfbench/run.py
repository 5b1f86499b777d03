#!/usr/bin/env python3
"""Builds the vnskit benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_steady|serve_churn|campaign|all \
        [--seed 7] [--seconds 15] [--trace 0|1]

Run it from the root of a source checkout.  The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/; later runs only
check that the build is current.  The benchmark's human-readable lines come
first; the last line of stdout is the JSON result, checked here against the
metric names in BENCHMARK.json.  Traced runs write their spans to
.bench_build/traces/<workload>.tsv.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_steady", "serve_churn", "campaign")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vnskit sources at %s; run from a source checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("configure failed; see " + log_path)
        if subprocess.call(["cmake", "--build", BUILD, "-j", "4"], stdout=log,
                           stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + log_path)


def expected_metrics(traced):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check(result, traced):
    """Returns why the result is malformed, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted %r" % result["attempted"]
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed %r" % result["failed"]
    expected = expected_metrics(traced)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected)))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s has value %r" % (name, value)
        if metric.get("unit") != expected[name]:
            return "metric %s has unit %r" % (name, metric.get("unit"))
    return None


def run(workload, seed, seconds, traced):
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if traced else "0"]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, workload + ".tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % workload)
    reason = check(result, traced)
    if reason:
        fail("%s: %s" % (workload, reason))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    build()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        lines, results[workload] = run(workload, args.seed, args.seconds, args.trace == 1)
        print("\n".join(lines))
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
