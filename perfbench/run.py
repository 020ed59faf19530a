#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_checks --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The benchmark is built from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the last line of standard output is the result
JSON that the benchmark binary prints.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "checker.h")):
        fail("no verifier sources next to perfbench/ (expected src/ in " + ROOT + ")")
    out = os.path.join(target, "perfbench")
    # Build output goes to stderr: stdout ends with the result line.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["paper_checks", "bdd_reach", "daemon_push"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = build_dir()
    try:
        out = build(target)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        fail("build failed: %s" % error)

    env = dict(os.environ)
    # Relative, so the daemon's socket path stays short whatever the checkout path.
    env["CARGO_TARGET_DIR"] = os.path.relpath(target, ROOT)
    if args.selftest:
        command = [os.path.join(out, "perfbench_selftest")]
    else:
        command = [os.path.join(out, "perfbench"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    # Its own process group, so a run that overstays takes its forked
    # check children down with it.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark run exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
