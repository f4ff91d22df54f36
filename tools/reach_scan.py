#!/usr/bin/env python3
"""Reachability scan: every src/ function must be linked into a binary.

Builds two trees at -O0 -fno-inline with one section per function and
--gc-sections, so a linked executable keeps exactly the functions some
path from main() (or a static initialiser) can call:

  * <build-dir>/main     every executable under bench/, examples/ and
                         tools/, plus the memcim_* libraries of src/;
  * <build-dir>/perfbench  perfbench/CMakeLists.txt's perfbench.

Defined set: the strong text symbols (nm type T) of the memcim_*
archives built from src/.  Reached set: every symbol defined in the
binaries.  A defined function missing from every binary is unreached.
Names are demangled, ABI tags are stripped and constructor/destructor
variants fold into one entry.

tools/reach_allowlist.txt lists the unreached functions that stay, one a
line as "<reason> <function>", with a reason from REASONS.  The scan
exits 1 when an unreached function is not listed, when a listed one is
reached or no longer defined, or when the list is malformed or holds
more than MAX_ENTRIES entries; 2 when a build or tool step fails; 0
otherwise.

    python3 tools/reach_scan.py [--build-dir build-reach] [--jobs N]
    python3 tools/reach_scan.py --count   # allowlist entries, no build

Needs cmake, a C++ toolchain, nm and c++filt.  The build trees are
reused and rebuilt incrementally.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "reach_allowlist.txt")
REASONS = ("special-member", "enum-name", "oracle-semantics", "observer")
MAX_ENTRIES = 40
BINARY_DIRS = ("bench", "examples", "tools")
SCAN_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd, **kwargs):
    done = subprocess.run(cmd, check=False, **kwargs)
    if done.returncode != 0:
        print(f"reach_scan: exited {done.returncode}: {' '.join(cmd)}",
              file=sys.stderr)
        sys.exit(2)
    return done


def configure(source, build):
    """(Re)configure with the scan's flags and a codemodel query, so the
    target list is current before anything is built."""
    query = os.path.join(build, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    run(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=None",
         "-DMEMCIM_WERROR=OFF", f"-DCMAKE_CXX_FLAGS={SCAN_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        stdout=sys.stderr)


def targets(build):
    """(name, type, source dir, artifact path) of every target in build."""
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = max(f for f in os.listdir(reply) if f.startswith("index-"))
    with open(os.path.join(reply, index)) as f:
        model = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, model)) as f:
        config = json.load(f)["configurations"][0]
    out = []
    for ref in config["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            t = json.load(f)
        artifacts = t.get("artifacts") or [{}]
        path = artifacts[0].get("path")
        if path:
            out.append((t["name"], t["type"], t["paths"]["source"],
                        os.path.join(build, path)))
    return out


def symbols(path, strong_text_only):
    """Mangled names of the symbols path defines."""
    listing = run(["nm", "--defined-only", path], capture_output=True,
                  text=True).stdout
    names = set()
    for line in listing.splitlines():
        parts = line.split()
        if len(parts) == 3 and (parts[1] == "T" or not strong_text_only):
            names.add(parts[2])
    return names


def demangle(names):
    """Mangled name -> demangled name with ABI tags stripped."""
    names = sorted(names)
    out = run(["c++filt"], input="\n".join(names), capture_output=True,
              text=True).stdout.splitlines()
    return {m: re.sub(r"\[abi:[^\]]*\]", "", d) for m, d in zip(names, out)}


def read_allowlist(path):
    """{function: reason}; exits 1 on a malformed or oversized list."""
    entries, errors = {}, []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            reason, _, function = line.partition(" ")
            function = function.strip()
            if reason not in REASONS or not function:
                errors.append(f"line {number}: want '<reason> <function>' "
                              f"with a reason from {', '.join(REASONS)}")
            elif function in entries:
                errors.append(f"line {number}: {function} listed twice")
            else:
                entries[function] = reason
    if len(entries) > MAX_ENTRIES:
        errors.append(f"{len(entries)} entries, at most {MAX_ENTRIES}")
    if errors:
        for e in errors:
            print(f"{os.path.basename(path)}: {e}", file=sys.stderr)
        sys.exit(1)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--allowlist", default=ALLOWLIST)
    parser.add_argument("--count", action="store_true",
                        help="print the allowlist's entry count and exit")
    args = parser.parse_args()
    allow = read_allowlist(args.allowlist)
    if args.count:
        print(len(allow))
        return 0

    main_tree = os.path.join(args.build_dir, "main")
    bench_tree = os.path.join(args.build_dir, "perfbench")
    configure(ROOT, main_tree)
    configure(os.path.join(ROOT, "perfbench"), bench_tree)
    listed = targets(main_tree)
    exes = [t for t in listed if t[1] == "EXECUTABLE"
            and t[2].split("/")[0] in BINARY_DIRS]
    archives = [t for t in listed if t[1] == "STATIC_LIBRARY"
                and t[0].startswith("memcim_") and t[2].startswith("src")]
    run(["cmake", "--build", main_tree, "-j", str(args.jobs), "--target"]
        + [t[0] for t in exes + archives], stdout=sys.stderr)
    run(["cmake", "--build", bench_tree, "-j", str(args.jobs),
         "--target", "perfbench"], stdout=sys.stderr)
    binaries = [t[3] for t in exes] + [
        t[3] for t in targets(bench_tree) if t[0] == "perfbench"]

    defined = set()
    for archive in archives:
        defined |= symbols(archive[3], strong_text_only=True)
    reached = set()
    for binary in binaries:
        reached |= symbols(binary, strong_text_only=False)
    names = demangle(defined)
    reached_names = {names[m] for m in defined & reached}
    unreached = {names[m] for m in defined - reached} - reached_names
    print(f"reach_scan: {len(archives)} archives, {len(binaries)} binaries, "
          f"{len(defined)} defined symbols, {len(defined - reached)} "
          f"unreached ({len(unreached)} functions), {len(allow)} allowed")

    failures = 0
    for function in sorted(unreached - allow.keys()):
        print(f"unreached: {function}")
        failures += 1
    for function in sorted(allow.keys() & reached_names):
        print(f"allowlisted but reached: {function}")
        failures += 1
    for function in sorted(allow.keys() - reached_names - unreached):
        print(f"allowlisted but not defined: {function}")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
