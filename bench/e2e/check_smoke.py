#!/usr/bin/env python3
"""The bench_e2e_smoke test: nwlb_e2e --workload=all --smoke, traced.

Passes when every correctness gate holds, every metric BENCHMARK.json
declares is printed exactly once per workload with its declared unit, no
undeclared metric is printed, and each workload's trace file is valid
trace-event JSON.
"""
import argparse
import collections
import json
import os
import subprocess
import sys

# Printed as `info` lines: reported but not bounded (see README.md).
INFO = {"step_p50_ms": "ms", "miss_rate": "ratio", "churn_mean": "ratio",
        "failed_ops_frac": "ratio"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)

    trace = os.path.join(args.workdir, "smoke_trace.json")
    results = os.path.join(args.workdir, "smoke_results.json")
    proc = subprocess.run([args.binary, "--workload=all", "--seed=1", "--smoke",
                           "--trace=" + trace, "--json=" + results],
                          stdout=subprocess.PIPE, text=True, timeout=280)
    sys.stdout.write(proc.stdout)
    problems = []
    if proc.returncode != 0:
        problems.append("nwlb_e2e exited with status %d" % proc.returncode)

    expected = {
        "metric": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        "info": INFO,
    }
    printed = collections.defaultdict(collections.Counter)
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in expected:
            kind, workload, name, _, unit = fields
            printed[(kind, workload)][name] += 1
            if expected[kind].get(name, unit) != unit:
                problems.append("%s %s: unit %s, declared %s"
                                % (workload, name, unit, expected[kind][name]))

    for w in (w["name"] for w in bench["workloads"]):
        for kind, names in expected.items():
            counts = printed[(kind, w)]
            for name in names:
                if counts[name] != 1:
                    problems.append("%s: %s %s printed %d times"
                                    % (w, kind, name, counts[name]))
            for name in counts:
                if name not in names:
                    problems.append("%s: undeclared %s %s" % (w, kind, name))
        base, ext = os.path.splitext(trace)
        try:
            with open("%s-%s%s" % (base, w, ext)) as f:
                events = json.load(f)["traceEvents"]
            if not events or any(e["ph"] != "X" or e["dur"] < 0 for e in events):
                problems.append("%s: malformed trace events" % w)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: bad trace file: %s" % (w, e))

    try:
        with open(results) as f:
            for r in json.load(f)["workloads"]:
                if not r or not r["correct"] or r["failed"] != 0:
                    problems.append("result not correct: %s" % json.dumps(r)[:300])
    except (OSError, ValueError, KeyError) as e:
        problems.append("bad results file: %s" % e)

    for p in problems:
        print("FAIL: " + p)
    print("bench_e2e_smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
