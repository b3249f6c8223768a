#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/ (which compiles
the simulator library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the benchmark
binary from the tree root and passes its output through: human-readable
lines on stderr, the JSON result as the last line of stdout. With
--trace 1 the host-time spans are written next to the build, under
traces/. The benchmark runs with address-space randomisation off, so
every run gets the same code and heap layout and run-to-run spread does
not depend on where the loader put things. The exit code is the
benchmark's: 0 only when every output check held.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_fig4", "multiprog_fig7", "grid_small_points")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """In the child before exec: turn address-space randomisation off
    for the benchmark (best effort; a host that forbids it runs with
    it on)."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in 1..120")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "harness",
                                       "run_record.hh")):
        sys.exit("perfbench: no simulator sources under %s" % root)

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                           preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
