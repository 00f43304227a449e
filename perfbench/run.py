#!/usr/bin/env python3
"""Repo benchmark entry point for the BLAM simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the simulator library from src/ plus the
blam_perf binary) in Release mode under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs blam_perf with the same
arguments. The last line of stdout is the result JSON object. With
--trace 1 the Chrome trace-event JSON is written next to the build as
traces/<workload>-seed<n>.json.

Build output goes to stderr. A failed build exits non-zero without printing
a result.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def configured_for(build_dir, source_dir):
    """True when build_dir holds a CMake cache made for source_dir."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            return "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % source_dir in cache
    except OSError:
        return False


def build(build_dir):
    """Configures (first time) and builds blam_perf; returns its path or None."""
    source_dir = os.path.join(REPO, "perfbench")
    steps = []
    if not configured_for(build_dir, source_dir):
        # --fresh drops a cache left by a checkout at another location.
        steps.append(["cmake", "--fresh", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "blam_perf",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, cwd=REPO, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "blam_perf")


def option(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    if option(args, "--trace") == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"), option(args, "--seed"))
        args = args + ["--trace-out", os.path.join(trace_dir, os.path.basename(name))]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
