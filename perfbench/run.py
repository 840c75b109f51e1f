#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs it.

    python3 perfbench/run.py --workload megabase --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py expected --first 0 --count 100 \
        --out perfbench/expected/megabase.json
    python3 perfbench/run.py selftest

Run from the repository root. The harness is built with CMake under
.bench_build/perfbench (the first run compiles the program's libraries,
later runs only check that the build is current); run outputs go under
.perfbench/. Build logs go to stderr, so the harness's last stdout line
(the result JSON of a workload run) stays the last line of this script's
output. Exits non-zero without a result when the build or the run fails.
"""
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench-harness"
RUN_TIMEOUT_S = 170  # a workload run must end well inside 180 s


def build(env):
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        cache = BUILD_DIR / "CMakeCache.txt"
        if not cache.exists():
            if not run_step(["cmake", "-S", str(BENCH_DIR), "-B",
                             str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env):
                # A failed configure must not leave a cache that skips
                # configuring next time.
                cache.unlink(missing_ok=True)
                return False
        return run_step(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                         "--target", "perfbench-harness"], env)


def run_step(command, env):
    done = subprocess.run(command, cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compilers and the program write only here
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    timeout = RUN_TIMEOUT_S if "--workload" in args else None
    sys.stdout.flush()
    child = subprocess.Popen([str(HARNESS)] + args, cwd=ROOT, env=env)
    # Stopping this script stops the harness too; wait() then reaps it.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: child.terminate())
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
