#!/usr/bin/env python3
"""Build and run the fedshare end-to-end benchmark.

Run from the root of a fedshare checkout:

    python3 perfbench/run.py --workload report_hetero --seed 1 \\
        --seconds 30 --trace 0

The first run configures and builds fedshare's libraries and the
benchmark program into .bench_build/ (RelWithDebInfo); later runs only
check that the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 880
RUN_GRACE_S = 120  # set-up, checks and the last whole round, past --seconds


def checkout_env():
    """The environment for the build and the run: temporary files go
    under .bench_build, and fedshare runs at its default thread count."""
    env = dict(os.environ)
    env.pop("FEDSHARE_THREADS", None)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=checkout_env(),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def build():
    out = os.path.join(BUILD_DIR, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                         BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "perfbench")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return rev.stdout.strip() if rev.returncode == 0 else "none"


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(BUILD_DIR, "work"),
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=checkout_env(),
                              stdout=subprocess.PIPE,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
