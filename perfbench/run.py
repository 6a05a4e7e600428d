#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig5-verify --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the analyzer
library from ../src plus the perfbench driver) in Release mode under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set);
later calls only re-run the incremental build. Every other argument goes to
the driver unchanged; its last stdout line is the JSON result.
"""
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def configured_here(cache):
    with open(cache) as f:
        return f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in f.read()


def build(out):
    """Configures once, then builds incrementally. Output goes to stderr."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(out, "CMakeCache.txt")
        if os.path.exists(cache) and not configured_here(cache):
            # Configured for a checkout at another path: start afresh.
            for entry in os.listdir(out):
                path = os.path.join(out, entry)
                if entry == ".lock":
                    continue
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
        if not os.path.exists(cache):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no analyzer sources next to perfbench/ (expected src/)",
              file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [os.path.join(out, "perfbench"), "--out-dir", traces] + argv
    child = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=175)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
