#!/usr/bin/env python3
"""memcim benchmark entry point.

Builds the perfbench executable from this checkout's sources (perfbench/
CMakeLists.txt, build tree in .bench_build/perfbench) and runs one
workload:

    python3 perfbench/run.py --workload serve_add_heavy --seed 1 \
        --seconds 20 --trace 0

--seed defaults to DEFAULT_SEED; CONFIRM_SEED is reserved for confirming a
claimed gain on inputs nobody tuned against.  --trace 0 (the default)
prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span log to .bench_build/perfbench/spans-<workload>-
<seed>.json).  The last stdout line is the JSON result; the exit code is
0 only when the build succeeded and every output check passed.  Build
output goes to stderr.  See perfbench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_add_heavy", "serve_search_light", "batch_sharded")
DEFAULT_SEED = 1
CONFIRM_SEED = 7
# Thread pool size: the usable CPUs, capped so the pool's hand-off cost
# stays comparable between machines.
MAX_THREADS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(jobs):
    """Configure once, then build incrementally; False on failure."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(cmd)}", file=sys.stderr)
            return False
    return os.path.exists(EXE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    threads = min(usable_cpus(), MAX_THREADS)
    if not build(max(1, threads)):
        return 1

    env = dict(os.environ, MEMCIM_THREADS=str(threads))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-file",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        print("perfbench: no result line was printed", file=sys.stderr)
        return 1
    print(f"perfbench: MEMCIM_THREADS={threads} of {usable_cpus()} usable CPUs")
    print(lines[-1])
    return done.returncode if done.returncode != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
