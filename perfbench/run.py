#!/usr/bin/env python3
"""Build the system and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `groupdet` release binary (the
served workloads spawn it) and the `perfbench` harness into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the harness. Its
last line of standard output is the run's JSON result. Scratch files (store
copies, span files) go to `.perfbench/`.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "campaign", "serve_eval", "report_stream")
# A run must end within 180 s; builds are timed separately.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds groupdet and the harness; returns their paths."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "gbd-cli", "--bin", "groupdet"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for step in steps:
        # Cargo reports on stderr; keep stdout for the result line.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(step)}")
    target = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release"
    return target / "groupdet", target / "perfbench"


def stop_group(proc):
    """Kills every process of the harness's group and waits until none is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        proc.poll()
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        sys.exit(f"perfbench: {ROOT} is not a checkout of the repository (no crates/cli)")

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    groupdet, harness = build(env)

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    command = [
        str(harness),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--groupdet", str(groupdet),
        "--out", str(out),
    ]
    # Its own process group, so the servers it spawns can be stopped with it
    # whatever way it ends.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    stop_group(proc)
    proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
