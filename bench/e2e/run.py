#!/usr/bin/env python3
"""Builds nwlb_e2e from source and runs one workload of it.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Paths resolve from this file, so any working directory will do.  The first
run configures and builds into .bench_build/ at the repository root (about
a minute on 4 cores); later runs only confirm the build is current.  The
last line of standard output is one JSON object,

    {"correct": true, "attempted": 254, "failed": 0, "metrics": {...}}

holding every end-to-end metric BENCHMARK.json declares (--trace 0), or
every per-layer metric (--trace 1, which adds the traced run and writes a
Chrome trace to .bench_build/trace-<workload>.json).  A failed correctness
gate still prints that line, with "correct": false.  A build or run that
fails exits non-zero without it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nwlb_e2e")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
GATE_FAILED = 3  # nwlb_e2e's exit status when a correctness gate fails.


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "nwlb_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if code != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    result_path = os.path.join(BUILD, "result-%s.json" % args.workload)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--json=" + result_path]
    if args.trace:
        cmd.append("--trace=" + os.path.join(BUILD, "trace-%s.json" % args.workload))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nwlb_e2e timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, GATE_FAILED):
        fail("nwlb_e2e exited with status %d" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)):
            fail("nwlb_e2e did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
