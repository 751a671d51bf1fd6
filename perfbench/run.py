#!/usr/bin/env python3
"""Build the benchmark and avivd from source, then run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep-kernels, sweep-exhaustive, serve-mixed (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset. The last line of standard output is the
result object; the exit code is non-zero on any build or correctness
failure.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "perfbench", "--bin", "perfbench",
            "-p", "aviv-cli", "--bin", "avivd",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    run = subprocess.run(
        [os.path.join(release, "perfbench"), *sys.argv[1:],
         "--avivd", os.path.join(release, "avivd")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
