#!/usr/bin/env python3
"""Builds the two-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --rate-sweep

Run it from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark driver into
.bench_build/ (Release); later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the driver's JSON result. The exit
code is the driver's: nonzero when the build fails, a check rejects an
output, or the run exceeds its time limit.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170  # a run must finish within 180 s


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Serialize concurrent builds in one checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, cwd=ROOT)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
