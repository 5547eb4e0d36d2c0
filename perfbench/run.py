#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload tune-suite|graph-nets|fuzz-diff \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes through dune into
_build/ (dune's shared cache disabled, so nothing is written outside
the checkout); its output goes to stderr so that the benchmark's own
standard output ends with its one-line JSON result.  The exit code is
the benchmark's: non-zero on any output mismatch, on a failed build, or
when the IMTP sources are missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "the benchmark builds the IMTP sources it measures",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
