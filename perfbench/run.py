#!/usr/bin/env python3
"""Builds the warehouse benchmark from source and runs one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The engine (src/) and the benchmark
(perfbench/) are compiled into .bench_build/perfbench with CMake; the
first run builds, later runs only check that the build is current.
The last line of standard output is the benchmark's JSON result.
Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: expected src/ beside perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=["scan", "dashboard"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's self-tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "whbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    command = [os.path.join(BUILD_DIR, "whbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
