#!/usr/bin/env python3
"""Builds and runs the tsq end-to-end benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the tsq library from the
checkout's own sources) into .bench_build/, then runs the driver with its
database files under .bench_build/data (on a tmpfs the driver mounts
there, visible to no other process) and its span files under
.bench_build/out. The driver's last stdout line is the JSON result. The
exit code is non-zero, and no result is printed, when the build fails; it
is non-zero with "correct": false when an op fails or an answer is wrong.
Standard library only.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("lookup", "paper_mix", "ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Settings that would change what tsq does under the benchmark: armed
# failpoints, a slow-query log (which arms stage tracing) or a forced
# kernel level.
SCRUBBED_ENV = ("TSQ_FAILPOINTS", "TSQ_SLOW_QUERY_MS", "TSQ_SIMD")


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group, killing the whole group (make's
    compiler children too) if it outlives `timeout`. Returns (exit code,
    stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {os.path.basename(cmd[0])} exceeded {timeout} s",
              file=sys.stderr)
        return 1, None
    return proc.returncode, out


def build():
    """Configures (once) and builds the driver; returns True on success."""
    # Compiler temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr, env=env)
        except OSError as err:  # e.g. no cmake on the PATH
            print(f"run.py: {err}", file=sys.stderr)
            return False
        if code != 0:
            print(f"run.py: {' '.join(cmd[:2])} exited {code}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run_driver(args):
    """Runs the driver, relaying its output; returns its exit code."""
    data_dir = os.path.join(BUILD_ROOT, "data",
                            f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir,
           "--out-dir", os.path.join(BUILD_ROOT, "out")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              env=env, text=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if out is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code if code >= 0 else 1  # killed by a signal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 1
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
