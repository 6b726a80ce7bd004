#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-mc --seed 1 --seconds 10 --trace 0

Arguments are passed to the `perfbench` binary unchanged. The build goes
to $CARGO_TARGET_DIR (default `.bench_build` under the current
directory); scratch files such as the service journal go to a
`perfbench-work` directory inside it and are removed by the run. The
last line of standard output is the run's JSON result; the exit code is
the binary's (non-zero when a correctness check fails or the build
fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One run measures for --seconds and then checks its outputs; anything
# near this limit is a hang.
RUN_TIMEOUT_S = 170


def first_line(cmd, cwd):
    try:
        out = subprocess.run(
            cmd, cwd=cwd, capture_output=True, text=True, timeout=30, check=True
        )
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return None


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = first_line(["rustc", "--version"], ROOT) or "unknown"
    commit = "unknown (not a git checkout)"
    top = first_line(["git", "rev-parse", "--show-toplevel"], ROOT)
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = first_line(["git", "rev-parse", "HEAD"], ROOT) or commit
    print(f"context: rustc=\"{rustc}\" commit={commit}", flush=True)
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work_dir],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
