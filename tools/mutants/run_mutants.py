#!/usr/bin/env python3
"""Mutation check: every mutant in tools/mutants/ must be killed.

Each *.patch file here is a small deliberate bug against src/, with a
header naming the test binary and the gtest filter expected to catch it:

    Mutant: <what the bug does>
    Binary: test_logic
    Filter: *AdderOracle*:AdderGolden.*

    --- a/src/...
    +++ b/src/...

For each patch the script applies it to a scratch copy of this checkout,
rebuilds only the named test binary, runs the filter at MEMCIM_THREADS=1
and 4, and requires a failure at both.  A patch that no longer applies,
a mutant that does not build and a filter that selects no test count as
failures too.  The copy and its build tree live under --work (default
build-mutants/ in the checkout), so reruns rebuild incrementally.

    python3 tools/mutants/run_mutants.py [--jobs 4] [--only NAME ...]

Prints one row per mutant and exits 0 only when every mutant was killed
at both thread counts.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
THREADS = (1, 4)
TEST_TIMEOUT_S = 900
BUILD_TIMEOUT_S = 1800


def read_header(path):
    """The Mutant/Binary/Filter fields before the diff."""
    fields = {}
    with open(path) as f:
        for line in f:
            if line.startswith("--- ") or line.startswith("diff "):
                break
            key, sep, value = line.partition(":")
            if sep and key in ("Mutant", "Binary", "Filter"):
                fields[key] = value.strip()
    missing = [k for k in ("Mutant", "Binary", "Filter") if k not in fields]
    if missing:
        raise SystemExit(f"{path}: header lacks {', '.join(missing)}")
    return fields


def sync_tree(tree):
    """Copy the checkout's files (tracked, or new and not ignored) into
    `tree`, touching only the files whose content differs, so the build
    stays incremental."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.split(b"\0")
    for rel in (f.decode() for f in files if f):
        src = os.path.join(ROOT, rel)
        dst = os.path.join(tree, rel)
        if not os.path.isfile(src):
            continue
        with open(src, "rb") as f:
            data = f.read()
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def git_apply(tree, patch, *flags):
    # The ceiling keeps git from taking an enclosing checkout for the
    # copy's repository, so paths resolve against the copy.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(tree))
    return subprocess.run(["git", "apply", *flags, patch], cwd=tree, env=env,
                          capture_output=True, text=True).returncode == 0


def build(build_dir, target, jobs):
    try:
        done = subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(jobs), "--target",
             target], capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run_filter(binary, test_filter, threads):
    """'killed' when the filter fails (a crash or hang included),
    'survived' when it passes, 'no tests' when it selects none."""
    env = dict(os.environ, MEMCIM_THREADS=str(threads))
    try:
        done = subprocess.run([binary, f"--gtest_filter={test_filter}"],
                              env=env, capture_output=True, text=True,
                              timeout=TEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    if done.returncode != 0:
        return "killed"
    # A filter that matches nothing passes, but kills nothing either.
    if "[==========] 0 tests" in done.stdout:
        return "no tests"
    return "survived"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", default=os.path.join(ROOT, "build-mutants"),
                        help="scratch copy and build tree (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--only", nargs="*", default=None,
                        help="mutant names (patch file stems) to run")
    args = parser.parse_args()

    patches = sorted(f for f in os.listdir(HERE) if f.endswith(".patch"))
    if args.only:
        patches = [p for p in patches if p[:-len(".patch")] in args.only]
    if not patches:
        raise SystemExit("no mutants selected")

    work = os.path.abspath(args.work)
    tree = os.path.join(work, "tree")
    build_dir = os.path.join(work, "build")
    os.makedirs(tree, exist_ok=True)
    sync_tree(tree)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", tree, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True,
                       stdout=subprocess.DEVNULL)

    rows = []
    for name in patches:
        patch = os.path.join(HERE, name)
        head = read_header(patch)
        binary = os.path.join(build_dir, "tests", head["Binary"])
        row = [name[:-len(".patch")], head["Binary"], head["Filter"]]
        if not git_apply(tree, patch, "--check"):
            rows.append(row + ["-", "-", "DOES NOT APPLY"])
            continue
        git_apply(tree, patch)
        try:
            if not build(build_dir, head["Binary"], args.jobs):
                rows.append(row + ["-", "-", "DOES NOT BUILD"])
                continue
            results = [run_filter(binary, head["Filter"], t) for t in THREADS]
        finally:
            git_apply(tree, patch, "-R")
        verdict = ("killed" if all(r.startswith("killed") for r in results)
                   else "SURVIVED")
        rows.append(row + results + [verdict])

    header = ["mutant", "binary", "filter"] + [
        f"MEMCIM_THREADS={t}" for t in THREADS] + ["verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    failed = [r for r in rows if r[-1] != "killed"]
    print(f"{len(rows) - len(failed)} of {len(rows)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
