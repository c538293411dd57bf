#!/usr/bin/env python3
"""Builds and runs the libdpc benchmark.

    python3 perfbench/run.py --workload fwd-1032 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The first call configures and compiles
perfbench/ (the library sources under src/ plus the benchmark binary) in
Release mode into .bench_build/perfbench; later calls rebuild incrementally.
The last line of standard output is the result object; everything else the
binary reports goes to standard error.

--selfcheck runs every workload twice with --seed and once with --seed + 1,
one repetition each, and checks that the deterministic counts repeat for the
same seed and change with the seed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "dpc_perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources at %s/src; nothing to build" % ROOT)
        return False
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dpc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def raise_fd_limit():
    # A WAL keeps one open file per node; the 1032-node workload needs more
    # than the common soft limit of 1024.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 8192 if hard == resource.RLIM_INFINITY else min(8192, hard)
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse_detail(lines):
    for line in lines:
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]
    return None


def selfcheck(same, other):
    ok = True
    workloads = ["fwd-1032", "dns-zipf", "fwd-wal"]
    for workload in workloads:
        details = []
        for seed in (same, same, other):
            code, lines = run_binary(workload, seed, 0, 0,
                                     ["--min-reps", "1"])
            detail = parse_detail(lines)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or detail is None or not result.get("correct"):
                log("selfcheck %s seed %d: run failed or incorrect" %
                    (workload, seed))
                ok = False
                break
            details.append(detail["counts"])
        if len(details) < 3:
            continue
        if details[0] != details[1]:
            diff = sorted(k for k in details[0]
                          if details[0][k] != details[1].get(k))
            log("selfcheck %s: seed %d is not deterministic: %s" %
                (workload, same, ", ".join(diff)))
            ok = False
        elif details[0] == details[2]:
            log("selfcheck %s: seeds %d and %d gave identical counts" %
                (workload, same, other))
            ok = False
        else:
            log("selfcheck %s: deterministic for seed %d, differs for seed "
                "%d" % (workload, same, other))
    log("selfcheck %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    raise_fd_limit()
    if args.selfcheck:
        return selfcheck(args.seed, args.seed + 1)

    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    if code != 0 or not lines:
        log("run.py: benchmark exited with code %d" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("run.py: the benchmark's last line is not a result object")
        return 1
    for line in lines[:-1]:
        log(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
