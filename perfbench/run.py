#!/usr/bin/env python3
"""Build the pxf CLI and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload engine-nitf --seed 1 --seconds 30 --trace 0

Builds go to $CARGO_TARGET_DIR (default: .bench_build under the current
directory). The benchmark's own output passes through unchanged; its last
line of standard output is the result object. The exit code is the
benchmark's (0 correct, 1 wrong output, 2 run not made), or 1 when a
build fails.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The broker workload runs the real `pxf broker` CLI as a child.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "pxf-cli", "--bin", "pxf"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "pxf-perfbench"),
             "--pxf", os.path.join(release, "pxf")] + sys.argv[1:]
    # The benchmark and the broker it starts share a process group of
    # their own, so a terminated run takes the broker down with it.
    child = subprocess.Popen(bench, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
