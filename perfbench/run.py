#!/usr/bin/env python3
"""Build the release `pland` and the perfbench load generator, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload cold_unique --seed 1 --seconds 10 --trace 0

`--workload` takes a workload name or `all` (the default). Build output
goes to `$CARGO_TARGET_DIR` (default `.bench_build`); the traced run
writes its span log there too. The last line of standard
output is the JSON result; a failed build exits nonzero without one.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The daemon as the workspace ships it (its release profile).
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "mheta-serve", "--bin", "pland"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's own output goes to stderr: stdout carries the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(done.returncode or 1)
    loadgen = os.path.join(target, "release", "perfbench")
    pland = os.path.join(target, "release", "pland")
    sys.stdout.flush()
    os.execv(loadgen, [loadgen, *sys.argv[1:], "--pland", pland, "--out", target])


if __name__ == "__main__":
    main()
