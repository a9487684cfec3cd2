#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 30 --trace 0

Builds `suud` (repository workspace) and `perfbench` (this directory's own
package) into $CARGO_TARGET_DIR (default `.bench_build`), so both binaries
land side by side, then runs `perfbench` with the given arguments. Its
standard output passes through unchanged: the run record, then one JSON
result line. Exits non-zero without a result when either build fails.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_BUDGET_S = 860
RUN_BUDGET_S = 175


def build(cmd, env, deadline):
    # Cargo's own output goes to stderr, keeping stdout for the result.
    result = subprocess.run(
        cmd,
        env=env,
        stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return result.returncode == 0


def main():
    start = time.monotonic()
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", "Cargo.toml", "-p", "suu-serve", "--bin", "suud"],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    deadline = start + BUILD_BUDGET_S
    for cmd in builds:
        try:
            ok = build(cmd, env, deadline)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return 2
        if not ok:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2

    binary = os.path.join(target, "release", "perfbench")
    # Own process group, so a timeout also reaps the daemons it spawned.
    child = subprocess.Popen([binary] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
