#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 40 --trace 0

The first call configures and compiles perfbench/CMakeLists.txt (the
library under src/ plus serve_bench) into .bench_build/perfbench; later
calls reuse that build.  Build output goes to stderr, so the last line
of stdout is serve_bench's JSON result.  Run files (snapshot stores,
traces) stay under .bench_build/.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "serve_bench")
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and compile; a lock keeps concurrent first runs apart."""
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon",
                                       "tuning_daemon.hh")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A build tree copied from another checkout compiles that
        # checkout's sources: start over.
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                    shutil.rmtree(BUILD_DIR)
                    os.makedirs(BUILD_DIR)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def main():
    build()
    done = subprocess.run([BINARY, "--workdir", BUILD_ROOT] + sys.argv[1:],
                          cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
