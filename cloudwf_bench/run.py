#!/usr/bin/env python3
"""Builds cloudwf_bench from source and runs it.

Usage, from the repository root:

    python3 cloudwf_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Any cloudwf_bench flag is passed through (see README.md). The build lives in
.bench_build/ at the repository root: configured once, rebuilt incrementally.
Build output goes to stderr, so the last line of standard output is the
benchmark's one-line JSON result. The exit status is the benchmark's, or 1
when the build fails.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "cloudwf_bench", "--parallel", "4"],
        stdout=sys.stderr,
        check=True,
    )


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"cloudwf_bench build failed: {err}", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "cloudwf_bench")] + sys.argv[1:]
    if "--trace-out" not in command:
        command += ["--trace-out", os.path.join(BUILD, "bench_trace.json")]
    # Own process group, so a timeout also stops the workload's child.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("cloudwf_bench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
