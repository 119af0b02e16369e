#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload vocoder_sw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the perfbench binary (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout stays the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds; returns the binary path or None."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        cmake_dir = os.path.join(bdir, "cmake")
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be
    a git repository, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["vocoder_sw", "fault_fleet", "hw_explore"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.join(bdir, "out"),
           "--tmp-root", os.path.join(bdir, "tmp"),
           "--commit", commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
