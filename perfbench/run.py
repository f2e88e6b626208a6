#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Every file the build and the run write stays under .bench_build/ in the
repository root: the Go build cache, temporary files, the binary and the
spans files of traced runs. The arguments are passed to the benchmark
binary unchanged; its last line of standard output is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build only from the files at hand: no toolchain or module download,
    # no workspace file and no VCS stamping (the checkout may not be a
    # repository).
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="-buildvcs=false")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
