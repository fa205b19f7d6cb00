#!/usr/bin/env python3
"""Builds and runs the moqdns benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live-fetch --seed 1 --seconds 30 --trace 0

Workloads: live-fetch, live-push, sim-metro (see BENCHMARK.json and the
doc comments in perfbench/src); `--workload all` runs the three in turn.
The script builds the shipped `moqdns-relayd` daemon and the
`moqdns-perfbench` generator from source into $CARGO_TARGET_DIR (default
.bench_build), runs the generator and passes its output through:
human-readable tables, then one JSON line. The exit code is non-zero when
the build fails, an output check fails or the run cannot complete.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("live-fetch", "live-push", "sim-metro")
# A run must end within 180 s; leave room to stop the process group.
RUN_TIMEOUT_S = 170


def build(manifest, env, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def stop_group(pgid):
    """Kills a process group and waits until none of its members is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "relayd", "Cargo.toml")):
        sys.exit("run.py: run from the repository root (crates/relayd not found)")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(manifest, env, "-p", "moqdns-relayd", "--bin", "moqdns-relayd")
    build(manifest, env)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = [w for w in workloads if run(target, w, args) != 0]
    if failed:
        sys.exit(f"run.py: failed: {' '.join(failed)}")


def run(target, workload, args):
    """Runs one workload; its stdout passes straight through."""
    cmd = [
        os.path.join(target, "release", "moqdns-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--relayd", os.path.join(target, "release", "moqdns-relayd"),
        "--out", os.path.join(target, "perfbench"),
    ]
    # Its own process group, so a hung run takes its daemons down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    main()
