#!/usr/bin/env python3
"""Builds sdbench from this checkout and runs it.

Usage (from the repository root):

    python3 bench/sdbench/run.py --workload collection --seed 1 \
        --seconds 10 --trace 0

Every argument is passed to the sdbench binary (see README.md in this
directory).  The build goes to .bench_build/ at the repository root and
is incremental; build output goes to stderr so that the last line of
standard output stays sdbench's JSON result.  Scratch inputs, and the
temporary files of the compiler and the benchmark (TMPDIR), are written
under .bench_build/ as well; the inputs are removed when the run ends.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sdbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sdbench: no library sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", "sdbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build():
        print("sdbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--work-dir", BUILD, "--git-describe", git_describe()]
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    sys.exit(main())
