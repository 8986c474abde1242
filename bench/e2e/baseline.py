#!/usr/bin/env python3
"""Records a baseline of every workload into bench/e2e/baseline.json.

    python3 bench/e2e/baseline.py

Runs run.py --trace 0 on seed 1 for BENCHMARK.json's run_seconds, five
times per workload in each of two sets (the workloads take turns, so a slow
spell of the host hits all of them), then run.py --trace 1 once per
workload.  Writes the host, and per set, workload and metric the median
and quartiles of the runs, plus the traced run's per-layer values.  Prints,
per workload and metric, whether the set medians agree within the metric's
bound in BENCHMARK.json, and exits 1 if one does not.
"""
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 1
SETS = 2
RUNS_PER_SET = 5


def run(workload, seed, seconds, trace):
    """The run's declared metrics; untraced runs add the `info` ones."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("baseline.py: %s failed" % " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("baseline.py: %s failed a correctness gate" % workload)
    metrics = result["metrics"]
    if not trace:
        with open(os.path.join(ROOT, ".bench_build", "result-%s.json" % workload)) as f:
            metrics.update(json.load(f)["info"])
    return {name: m["value"] for name, m in metrics.items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def host():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = {}
    with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    version = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                             stdout=subprocess.PIPE, text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for s in range(SETS):
        values = {w: {} for w in workloads}
        for r in range(RUNS_PER_SET):
            for w in workloads:
                for name, value in run(w, SEED, seconds, 0).items():
                    values[w].setdefault(name, []).append(value)
                print("set %d run %d %s done" % (s + 1, r + 1, w), flush=True)
        sets.append({w: {name: summary(v) for name, v in metrics.items()}
                     for w, metrics in values.items()})
    layers = {w: run(w, SEED, seconds, 1) for w in workloads}

    agree = True
    for m in bench["end_to_end"]:
        for w in workloads:
            medians = [st[w][m["name"]]["median"] for st in sets]
            spread = (max(medians) - min(medians)) / min(medians)
            ok = spread <= m["bound"]
            agree = agree and ok
            print("%-14s %-17s set medians %s  differ %.3f  bound %.3f  %s"
                  % (w, m["name"], " ".join("%.6g" % x for x in medians), spread,
                     m["bound"], "ok" if ok else "DISAGREE"))

    out = {"host": host(), "seed": SEED, "run_seconds": seconds,
           "runs_per_set": RUNS_PER_SET, "sets": sets, "traced_layers": layers}
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
