#!/usr/bin/env python3
"""Records and compares committed benchmark snapshots (BENCH_<label>.json).

    python3 tools/bench_snapshot.py --label 27
    python3 tools/bench_snapshot.py --compare BENCH_25.json BENCH_27.json

A snapshot drives perfbench/run.py unchanged, from the root of the
checkout this file lives in, for BENCHMARK.json's run_seconds: `replay`
and `market` at seeds 1-3 with --trace 0, plus one --trace 1 run per
workload for the per-layer `layer` lines. It writes BENCH_<label>.json
at that root, with the host record, the commit, every metric, each
repetition's setup and run seconds, the digests and the layer lines.

--compare checks that every run was correct, that the digests match and
that the decision metrics stay within BENCHMARK.json's bounds. It prints
the other metrics' changes with their direction only (better or worse),
never a verdict: two snapshots of bit-identical code, taken on different
days on one host fingerprint, differ by more than the timing bounds, so
a timing gain or loss needs paired runs, not two snapshots. Next to
vms_per_s it prints setup_s + run, so work that moves across the
setup/run boundary shows. Exits 1 when a check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("replay", "market")
SEEDS = (1, 2, 3)
TRACE_SEED = 1
# Host fields recorded with a snapshot.
FINGERPRINT = ("cpu_model", "nproc", "compiler", "build_type", "cxx_flags")
# Functions of the decisions alone: the same digest gives the same value
# on any host.
DECISION_METRICS = ("throughput_loss_pct", "effective_cost")

REP = re.compile(r"^rep (\d+): setup ([0-9.]+) s, run ([0-9.]+) s, "
                 r".*digest ([0-9a-f]+)")


def run_perfbench(workload, seed, seconds, trace):
    """One perfbench/run.py invocation, parsed into a run record."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    print("bench_snapshot: " + " ".join(command[1:]), file=sys.stderr,
          flush=True)
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    lines = completed.stdout.rstrip("\n").split("\n")
    run = {"workload": workload, "seed": seed, "trace": trace,
           "correct": False, "host": {}, "digest": None, "reps": [],
           "metrics": {}, "layers": []}
    for line in lines:
        if line.startswith("host "):
            run["host"] = json.loads(line[len("host "):])
        elif line.startswith("digest: "):
            run["digest"] = line.split()[1]
        elif line.startswith("layer "):
            run["layers"].append(line[len("layer "):])
        elif REP.match(line):
            index, setup_s, run_s, digest = REP.match(line).groups()
            run["reps"].append({"rep": int(index), "setup_s": float(setup_s),
                                "run_s": float(run_s), "digest": digest})
    if completed.returncode == 0 and lines[-1].startswith("{\"correct\""):
        result = json.loads(lines[-1])
        run["correct"] = bool(result.get("correct"))
        run["metrics"] = {name: entry["value"]
                          for name, entry in result["metrics"].items()}
    return run


def commit_of_root():
    completed = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
    return completed.stdout.strip() or None


def snapshot(label):
    seconds = benchmark()["run_seconds"]
    runs = [run_perfbench(workload, seed, seconds, 0)
            for workload in WORKLOADS for seed in SEEDS]
    runs += [run_perfbench(workload, TRACE_SEED, seconds, 1)
             for workload in WORKLOADS]
    host = {key: runs[0]["host"].get(key) for key in FINGERPRINT}
    return {"label": str(label), "commit": commit_of_root(),
            "seconds": seconds, "host": host, "runs": runs}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def untraced(snap):
    return {(run["workload"], run["seed"]): run
            for run in snap["runs"] if run["trace"] == 0}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end_bounds():
    return [(metric["name"], metric["better"], metric["bound"])
            for metric in benchmark()["end_to_end"]]


def wall_s(run):
    """setup_s plus the median repetition's run seconds."""
    runs = [rep["run_s"] for rep in run["reps"]]
    if "setup_s" not in run["metrics"] or not runs:
        return None
    return run["metrics"]["setup_s"] + statistics.median(runs)


def median_of(runs, value):
    values = [value(run) for run in runs]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    failures = []
    old_runs, new_runs = untraced(old), untraced(new)
    for snap, runs in ((old_path, old["runs"]), (new_path, new["runs"])):
        for run in runs:
            if not run["correct"]:
                failures.append("%s: %s seed %d trace %d was not correct"
                                % (snap, run["workload"], run["seed"],
                                   run["trace"]))
    for key in sorted(set(old_runs) | set(new_runs)):
        if key not in old_runs or key not in new_runs:
            failures.append("%s seed %d is missing from one snapshot" % key)
            continue
        a, b = old_runs[key]["digest"], new_runs[key]["digest"]
        verdict = "same" if a == b else "DIFFERENT"
        print("digest %-6s seed %d: %s -> %s %s" % (key + (a, b, verdict)))
        if a != b:
            failures.append("%s seed %d digest %s -> %s" % (key + (a, b)))

    print("%-7s %-20s %14s %14s %8s %6s" % ("", "metric (median of seeds)",
                                            "old", "new", "change", "bound"))
    for workload in WORKLOADS:
        olds = [r for (w, _), r in old_runs.items() if w == workload]
        news = [r for (w, _), r in new_runs.items() if w == workload]
        for name, better, bound in end_to_end_bounds():
            a = median_of(olds, lambda run: run["metrics"].get(name))
            b = median_of(news, lambda run: run["metrics"].get(name))
            if a is None or b is None:
                continue
            change = (b - a) / a if a else 0.0
            worse = -change if better == "higher" else change
            if name in DECISION_METRICS:
                shown_bound = "%5.0f%%" % (100 * bound)
                verdict = "WORSE" if worse > bound else ""
                if verdict:
                    failures.append("%s %s worse by %.1f%% (bound %.0f%%)"
                                    % (workload, name, 100 * worse,
                                       100 * bound))
            else:
                shown_bound = "-"
                verdict = ("same" if worse == 0 else
                           "worse" if worse > 0 else "better")
            print("%-7s %-20s %14.6g %14.6g %+7.1f%% %6s %s"
                  % (workload, name, a, b, 100 * change, shown_bound,
                     verdict))
            if name == "vms_per_s":
                a, b = median_of(olds, wall_s), median_of(news, wall_s)
                if a is not None and b is not None:
                    print("%-7s %-20s %14.6g %14.6g %+7.1f%%"
                          % (workload, "setup_s + run", a, b,
                             100 * (b - a) / a))
    for failure in failures:
        print("FAIL: " + failure)
    print("compare: %s" % ("ok" if not failures else
                           "%d check(s) failed" % len(failures)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        parser.error("give --label to record a snapshot, or --compare OLD NEW")
    snap = snapshot(args.label)
    out = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(out, "w") as handle:
        json.dump(snap, handle, indent=1)
        handle.write("\n")
    print("bench_snapshot: wrote " + out, file=sys.stderr)
    return 0 if all(run["correct"] for run in snap["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
