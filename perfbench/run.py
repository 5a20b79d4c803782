#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 perfbench/run.py --workload <fig1-indb|sql-wire|serve-forest> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the repository. The engine library and the benchmark
are compiled (incrementally, outside every metric) into .bench_build/ with
CMake; each run stages its files in a private directory under
.bench_build/runs/ that is removed when the run ends. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNS_DIR = os.path.join(BUILD_ROOT, "runs")
# A run must end within 180 s; the benchmark itself stops well before.
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        # Concurrent runs in one checkout share the build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configured = any(
            os.path.exists(os.path.join(BUILD_DIR, f))
            for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "--", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(argv):
    """Runs one binary with a private work directory; returns its exit code."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    proc = None
    try:
        proc = subprocess.Popen(argv + ["--workdir", workdir], cwd=ROOT)
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    # Turn SIGTERM into an exception so the child is stopped and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    if not selftest and "--workload" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if selftest:
        return run([os.path.join(BUILD_DIR, "mlcs_perfbench_selftest")])
    return run([os.path.join(BUILD_DIR, "mlcs_perfbench")] + args)


if __name__ == "__main__":
    sys.exit(main())
