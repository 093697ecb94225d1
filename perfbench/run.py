#!/usr/bin/env python3
"""Benchmark of record for the temporal partitioning solver.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-tree --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe from source with dune, runs it with the
provenance it cannot see itself (git commit, source digest), and relays
its output. The last line of standard output is the result, one JSON
object. Exit code 0 means every verdict matched its reference. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SOURCES = ("dune-project", "lib", "bin", "perfbench")
# A run, build check included, ends within 180 s. perfbench.exe has no
# budget of its own and requires --budget.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0  # the first run of a checkout compiles everything


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the solver and benchmark sources: identifies the code
    measured even where no git metadata exists."""
    h = hashlib.sha256()
    files = []
    for top in SOURCES:
        if os.path.isfile(top):
            files.append(top)
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            files.extend(os.path.join(root, n) for n in names)
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    start = time.monotonic()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a repository checkout "
             "(dune-project and lib/ not found)")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    # A fresh checkout's first run spends its time compiling and may
    # take longer; every later run keeps to the budget as a whole.
    budget = RUN_BUDGET_S - (time.monotonic() - start)
    if budget < 120.0:
        budget = RUN_BUDGET_S
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--budget", repr(budget), "--commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget + 8.0)
    except subprocess.TimeoutExpired:
        fail("run exceeded its %.0f s budget" % budget)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
