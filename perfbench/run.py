#!/usr/bin/env python3
"""Run one perfbench workload against this checkout.

    python3 perfbench/run.py --workload batch_replay --seed 1 --seconds 10 --trace 0

Builds the mcbound libraries, the `mcbound` CLI and the benchmark driver
from this checkout into .bench_build/perfbench (CMake, Release), runs the
benchmark's self-test, then runs perfbench_driver in a fresh directory
under .bench_build/runs that is removed afterwards, on failure too. The
driver's last line of standard output is the JSON result; build output
goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("batch_replay", "single_fresh", "retrain_mixed")


class Interrupted(Exception):
    pass


def on_signal(signum, _frame):
    raise Interrupted(signum)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: %s holds no mcbound sources (src/CMakeLists.txt)" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs],
             [os.path.join(BUILD, "perfbench_selftest")]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int,
                        help="generate the trace from this seed instead of 15")
    args = parser.parse_args()

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, on_signal)
    build()
    os.makedirs(os.path.join(BUILD_ROOT, "runs"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_ROOT, "spans"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=os.path.join(BUILD_ROOT, "runs"))
    command = [os.path.join(BUILD, "perfbench_driver"),
               "--cli", os.path.join(BUILD, "mcbound"), "--workdir", workdir,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace_seed is not None:
        command += ["--trace-seed", str(args.trace_seed)]
    if args.trace:
        command += ["--spans-out", os.path.join(BUILD_ROOT, "spans",
                                                "%s-seed%d" % (args.workload, args.seed))]
    proc = None
    try:
        sys.stdout.flush()
        proc = subprocess.Popen(command)
        return proc.wait()
    except Interrupted:
        return 130
    finally:
        # perfbench_driver stops its servers itself; SIGTERM makes it do so
        # now, and the servers die with it in any case.
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
