#!/usr/bin/env python3
"""Builds and runs the closed-loop serving benchmark (see README.md).

    python3 servebench/run.py --workload dispatch --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout. The first run compiles the library
sources and the benchmark into .bench_build/servebench/<profile> (under a
minute on 3 cores); later runs only re-check the build. The last line of standard
output is the result as one JSON object; everything before it is
commentary. The exit code is 0 only for a run whose answers were all
correct and whose operations all succeeded.

Extra flags: --check-all (short trace, every answer checked against the
oracle), --profile lockdep|noobs (the instrumentation-overhead builds;
perf is the measured profile).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "servebench")
PROFILES = ("perf", "lockdep", "noobs")
BUILD_TIMEOUT_S = 840
# A run is stopped after max(RUN_TIMEOUT_MIN_S, RUN_ALLOWANCE_S + replays x
# seconds x RUN_MARGIN): set-up and trace generation take a fixed share,
# and a traced run replays the trace three times (untraced, traced, direct).
RUN_TIMEOUT_MIN_S = 175
RUN_ALLOWANCE_S = 60
RUN_MARGIN = 3
BUILD_JOBS = "3"


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    or interruption and waits for it, so no compiler or benchmark process
    outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def configured_for(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(profile):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(BUILD_ROOT, profile)
    home = configured_for(build_dir)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)  # configured for another checkout
        home = None
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if home is None:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSERVEBENCH_PROFILE=" + profile])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", BUILD_JOBS])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            try:
                code = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                 stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                log.flush()
                with open(log_path, encoding="utf-8",
                          errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-all", action="store_true")
    parser.add_argument("--profile", choices=PROFILES, default="perf")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build(args.profile)
    cmd = [binary, "--profile", args.profile, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.check_all:
        cmd.append("--check-all")
    if args.trace == 1:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".jsonl")]
    replays = 3 if args.trace == 1 else 1
    timeout = max(RUN_TIMEOUT_MIN_S,
                  RUN_ALLOWANCE_S + replays * args.seconds * RUN_MARGIN)
    sys.stdout.flush()
    try:
        code = run_group(cmd, timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was stopped" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
