#!/usr/bin/env python3
"""Build the perfbench harness from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree lives in $CARGO_TARGET_DIR
(default .bench_build) under the current directory; build output goes to
stderr so the last line of stdout is the harness's JSON result. Every other
argument is passed to the harness unchanged (see perfbench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the harness; return its path or exit."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found; "
                         "run from a full checkout\n")
        sys.exit(2)
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def main():
    binary = build()
    spans_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-spans")
    sys.stdout.flush()
    os.execv(binary, [binary, "--spans-dir", spans_dir] + sys.argv[1:])


if __name__ == "__main__":
    main()
