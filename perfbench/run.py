#!/usr/bin/env python3
"""Builds and runs the deflation-stack benchmark (see README.md).

    python3 perfbench/run.py --workload replay|market|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (and the repository's src/ tree) under .bench_build/perfbench;
later runs only rebuild what changed. The last line of standard output is
the JSON result printed by the benchmark binary.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("replay", "market", "service")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
# Each run must end well within three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def source_id():
    """The commit when the checkout is a git work tree, else a hash of the
    sources the benchmark builds."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        if commit:
            return "git " + commit
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simcluster", "cluster_sim.cpp")):
        log("the repository sources (src/) are missing next to perfbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        completed = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if completed.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 3
    os.makedirs(RUN_DIR, exist_ok=True)
    # Thread counts and sizes come from the workload definitions only.
    env = {k: v for k, v in os.environ.items()
           if k not in ("DEFLATE_THREADS", "DEFLATE_BENCH_SCALE")}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RUN_DIR, "--source", source_id()]
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 4
    lines = completed.stdout.rstrip("\n").split("\n")
    if completed.returncode != 0 or not lines[-1].startswith("{\"correct\""):
        sys.stdout.write("".join(line + "\n" for line in lines
                                 if not line.startswith("{\"correct\"")))
        log("the benchmark failed (exit code %d)" % completed.returncode)
        return completed.returncode or 5
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
