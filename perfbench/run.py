#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_paper|serve_hot \
        --seed N --seconds S --trace 0|1

Builds the `smith85` binary (the servers `serve_hot` spawns) and
the benchmark package in `perfbench/`, both in release mode and offline,
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark.
Build output goes to stderr; the benchmark's stdout passes through, its
last line being the JSON result. The exit code is the benchmark's, or 1
if the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "smith85-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "smith85-perfbench"), *sys.argv[1:],
           "--smith85", os.path.join(release, "smith85"),
           "--work", ".perfbench"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
