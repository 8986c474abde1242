#!/usr/bin/env python3
"""Runs the end-to-end benchmark in alternating pairs on two checkouts.

    python3 tools/bench_pairs.py --parent <dir> --change <dir> \\
        [--workloads all|<name>,<name>] [--pairs 10] [--seed 1]
    python3 tools/bench_pairs.py --self-test

<dir> is a checkout of the repository (a clone or an unpacked archive, each
with its own .bench_build/).  One warm-up run per side builds nwlb_e2e and
is discarded.  Then every pair runs `bench/e2e/run.py --trace 0` once in
each checkout for every workload, for the parent's BENCHMARK.json
run_seconds; the side that runs first alternates from pair to pair, so a
slow spell of the host does not favour one side.  Each run's values go to
stderr as it finishes.

Per workload and end-to-end metric (direction and bound from the parent's
BENCHMARK.json), stdout gets both medians, the parent's interquartile range
(IQR), how many pairs the change won (ties count for neither) and a verdict:

    gain        at least 10 pairs ran, the change won at least 9 in 10 of
                them and the medians differ by more than the parent's IQR
    worse       the change's median is worse than the parent's by more than
                the bound (relative to the parent's median)
    unresolved  the parent's IQR is wider than the bound and not every run
                of the change beats every run of the parent
    ok          none of the above

It also flags a change whose share of failed operations is higher than the
parent's, and any run that failed a correctness gate.  Exit status: 0 when
nothing is worse or flagged, 1 otherwise, 2 on bad flags.  --self-test
checks the statistics on fixed samples and runs nothing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

GAIN_SHARE = 0.9  # Share of pairs the change must win to claim a gain.
GAIN_PAIRS = 10   # Fewer pairs than this never read as a gain.


def is_better(a, b, better):
    """True when value `a` beats value `b` under direction `better`."""
    return a < b if better == "lower" else a > b


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(parent, change, better, bound):
    """Statistics of one metric over paired runs (parent[i] with change[i])."""
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    spread = iqr(parent)
    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p, better))
    scale = abs(med_p)
    worse_by = (med_c - med_p) if better == "lower" else (med_p - med_c)
    worst_change = max(change) if better == "lower" else min(change)
    best_parent = min(parent) if better == "lower" else max(parent)
    if (len(parent) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(parent) and
            is_better(med_c, med_p, better) and abs(med_c - med_p) > spread):
        verdict = "gain"
    elif worse_by > bound * scale:
        verdict = "worse"
    elif spread > bound * scale and not is_better(worst_change, best_parent, better):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"parent_median": med_p, "change_median": med_c, "parent_iqr": spread,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=checkout)
    if proc.returncode != 0:
        sys.exit("bench_pairs.py: failed: " + " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "values": {k: m["value"] for k, m in result["metrics"].items()}}


def report(workload, metrics, runs):
    """Prints one workload's table; returns True when something is flagged."""
    flagged = False
    print("\n%s (%d pairs)" % (workload, len(runs["parent"])))
    print("  %-18s %-11s %14s %14s %12s %6s  %s" %
          ("metric", "unit", "parent", "change", "parent IQR", "wins", "verdict"))
    for m in metrics:
        name = m["name"]
        s = compare([r["values"][name] for r in runs["parent"]],
                    [r["values"][name] for r in runs["change"]], m["better"], m["bound"])
        print("  %-18s %-11s %14.6g %14.6g %12.4g %3d/%-2d  %s" %
              (name, m["unit"], s["parent_median"], s["change_median"], s["parent_iqr"],
               s["wins"], s["pairs"], s["verdict"]))
        flagged |= s["verdict"] == "worse"
    shares = {side: failed_share(r) for side, r in runs.items()}
    incorrect = {side: sum(1 for r in rs if not r["correct"]) for side, rs in runs.items()}
    print("  failed share: parent %.6g, change %.6g%s" %
          (shares["parent"], shares["change"],
           "  FLAG: higher on the change" if shares["change"] > shares["parent"] else ""))
    print("  runs failing a correctness gate: parent %d, change %d" %
          (incorrect["parent"], incorrect["change"]))
    return flagged or shares["change"] > shares["parent"] or any(incorrect.values())


def self_test():
    up = list(range(100, 110))
    cases = [
        # (parent, change, better, bound) -> verdict, wins
        ((up, [v + 20 for v in up], "higher", 0.25), "gain", 10),
        ((up, [v - 20 for v in up], "lower", 0.25), "gain", 10),
        # Nine pairs, all won by far: too few to claim a gain.
        ((up[:9], [v + 20 for v in up[:9]], "higher", 0.25), "ok", 9),
        (([100], [150], "higher", 0.25), "ok", 1),
        ((up, [v * 1.4 for v in up], "lower", 0.25), "worse", 0),
        ((up, [v * 0.7 for v in up], "higher", 0.25), "worse", 0),
        ((up, list(up), "higher", 0.25), "ok", 0),  # Ties count for neither.
        ((up, [v + 1 for v in up], "higher", 0.25), "ok", 10),  # Inside the IQR.
        (([10, 10, 10, 10, 11, 11, 11, 11, 11, 12], [10] * 10, "lower", 0.1), "ok", 6),
        # Parent IQR 50 on a median of 100: wider than a 0.25 bound.
        (([50, 70, 90, 100, 100, 100, 110, 130, 150, 160],
          [60, 80, 100, 100, 100, 100, 100, 120, 140, 150], "lower", 0.25),
         "unresolved", 4),
        # Parent IQR 90 on a median of 100, but every change run beats every
        # parent run: resolved, though too close to the median for a gain.
        (([10, 10, 10, 10, 100, 100, 100, 100, 100, 100], [101] * 10, "higher", 0.25),
         "ok", 10),
        (([50, 70, 90, 100, 100, 100, 110, 130, 150, 160],
          [161, 170, 180, 190, 200, 210, 220, 230, 240, 250], "higher", 0.25), "gain", 10),
    ]
    errors = 0
    for k, (args, want_verdict, want_wins) in enumerate(cases):
        got = compare(*args)
        if (got["verdict"], got["wins"]) != (want_verdict, want_wins):
            print("case %d: got %s, %d wins; want %s, %d wins" %
                  (k, got["verdict"], got["wins"], want_verdict, want_wins))
            errors += 1
    if iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) != 5.5 or iqr([3]) != 0.0:
        print("iqr: wrong quartiles")
        errors += 1
    runs = {"parent": [{"attempted": 100, "failed": 0, "correct": True}] * 2,
            "change": [{"attempted": 100, "failed": 0, "correct": True},
                       {"attempted": 100, "failed": 1, "correct": True}]}
    if failed_share(runs["parent"]) != 0.0 or failed_share(runs["change"]) != 0.005:
        print("failed_share: wrong share")
        errors += 1
    if failed_share([]) != 0.0:
        print("failed_share: nothing attempted must read as no failures")
        errors += 1
    print("self-test: %d of %d checks failed" % (errors, len(cases) + 3))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    if args.pairs < 1 or args.seed < 0:
        parser.error("need --pairs >= 1 and --seed >= 0")
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    try:
        with open(os.path.join(checkouts["parent"], "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        parser.error("cannot read the parent's BENCHMARK.json: %s" % e)
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workloads == "all" else args.workloads.split(",")
    for w in workloads:
        if w not in known:
            parser.error("unknown workload " + w)

    for side, checkout in checkouts.items():
        print("warm-up %s: %s" % (side, checkout), file=sys.stderr)
        run_once(checkout, workloads[0], args.seed, 1)
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_once(checkouts[side], w, args.seed, bench["run_seconds"])
                runs[w][side].append(result)
                print("pair %d %s %s correct=%s failed=%d/%d %s" %
                      (pair + 1, w, side, result["correct"], result["failed"],
                       result["attempted"], json.dumps(result["values"], sort_keys=True)),
                      file=sys.stderr, flush=True)

    flagged = False
    for w in workloads:
        flagged |= report(w, bench["end_to_end"], runs[w])
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
