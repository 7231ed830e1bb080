#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the simulator library from
src/) into .bench_build/perfbench, then runs the benchmark binary on one
host thread.  Its standard output ends with one JSON line holding the keys
correct, attempted, failed and metrics; the binary's exit status is passed
through.  --trace 1 also writes the recorded spans to
.bench_build/traces/<workload>-seed<N>.json.

--write-golden records the fingerprints of the run (golden seed only) into
perfbench/golden/<workload>.txt instead of checking against them.

Exits 2 without printing a result when the simulator sources are missing or
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree-contended", "tree-commit", "service-rw", "mc-explore")
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bench_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    bdir = bench_root() / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(HERE), "-B", str(bdir),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", str(bdir), "-j", str(BUILD_JOBS)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def git_commit():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    binary = build()
    golden = HERE / "golden" / f"{args.workload}.txt"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    cmd += ["--write-golden" if args.write_golden else "--golden", str(golden)]
    if args.trace:
        traces = bench_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
