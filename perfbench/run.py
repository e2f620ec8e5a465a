#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/rapilog_bench.exe from source with dune (build tree in
.bench_build/), runs one workload, and passes its output through. The
last line of stdout is the result JSON. Exits non-zero when the sources
are missing, the build fails, a check fails or the run overruns.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/rapilog_bench.exe"
RUN_TIMEOUT_S = 175


def stop_session(proc):
    """Kill whatever is left of the run's session and wait for the run."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} is missing: run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            return 2

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled", TARGET],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "rapilog_bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    # The benchmark forks a child process per unit; it runs in a session
    # of its own so that an overrun stops the children too.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        stop_session(run)
    sys.stdout.write(out)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
