#!/usr/bin/env python3
"""Builds the zoombench binary from this checkout and runs one workload.

    python3 zoombench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
binary (and the repository's libraries) into $CARGO_TARGET_DIR/zoombench,
or .bench_build/zoombench when that is unset; later runs rebuild
incrementally. Workload data lives in .bench_data/ and is removed at the
end of the run. The binary's last stdout line is the result JSON; build
output goes to stderr. Exits non-zero without a result if the sources or
the build are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("zoom-resident", "cold-slice", "live-ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("zoombench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no TGraphZoom sources next to the benchmark (expected src/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "zoombench")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "zoombench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "zoombench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    data = os.path.join(ROOT, ".bench_data", "%s-%d" % (args.workload, os.getpid()))
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data", data],
            timeout=170)
    except subprocess.TimeoutExpired:
        fail("zoombench did not finish within 170 s")
    finally:
        shutil.rmtree(data, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
