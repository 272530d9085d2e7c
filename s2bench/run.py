#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's src/ and runs it.

    python3 s2bench/run.py --workload <similarity|explore|ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The build tree is $CARGO_TARGET_DIR/s2bench (default .bench_build/s2bench),
relative to the checkout root; the first run configures and builds it, later
runs rebuild only what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "s2bench")
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "s2bench", "-j", "4"])
    for step in steps:
        code = subprocess.run(step, cwd=root, stdout=sys.stderr).returncode
        if code != 0:
            print("s2bench: build step failed: " + " ".join(step), file=sys.stderr)
            return code
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "s2bench")] + sys.argv[1:],
                          cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
