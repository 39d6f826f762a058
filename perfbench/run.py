#!/usr/bin/env python3
"""Benchmark entry point for timeprintd.

Run from the root of a timeprints checkout:

    python3 perfbench/run.py --workload triage --seed 1 --seconds 25 --trace 0

Builds the daemon and the tpbench program from source (dune, release
profile, into .bench_build/), runs one workload with perfbench's
tpbench, and relays its output. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Any failure --
no source tree, a build error, a wrong answer, a timeout -- exits
non-zero without printing a result. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
DAEMON = "bin/timeprintd.exe"
TPBENCH = "perfbench/tpbench.exe"
WORKLOADS = ("triage", "repair")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 165
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, capture=False):
    """Run cmd in a process group of its own and wait for it; on a
    timeout or an interrupt, kill the whole group (tpbench and the
    daemons it spawned) before re-raising."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else None,
        env=env,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for f in ("dune-project", "bin/timeprintd.ml", "perfbench/dune"):
        if not os.path.isfile(f):
            fail(f"{f} not found: run from the root of a timeprints checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./" + DAEMON, "./" + TPBENCH]
    try:
        code, _ = run_group(build, BUILD_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0:
        fail(f"build failed ({code})")

    os.makedirs(RUN_DIR, exist_ok=True)
    out_dir = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(out_dir, TPBENCH),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(out_dir, DAEMON), "--rundir", RUN_DIR]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        fail(f"tpbench exited with code {code}", code or 2)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("tpbench printed no JSON result")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("tpbench result is malformed or not correct")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
