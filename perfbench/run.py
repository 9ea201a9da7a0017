#!/usr/bin/env python3
"""Build and run the wallclock benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/gcbench.exe with dune into .bench_build/ (the shared dune
cache is disabled so nothing is written outside the checkout), then runs it
with the same arguments. The benchmark's last stdout line is its JSON
result; build messages go to stderr. Exits non-zero, without a result, when
the checkout does not hold the sources or the build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build/dune"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "gcbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no %s here: run from the root of a source checkout" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = [
        "dune", "build", "--root", ".", "--build-dir", os.path.join(root, BUILD_DIR),
        "--cache=disabled", "./perfbench/gcbench.exe",
    ]
    try:
        done = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    try:
        done = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
