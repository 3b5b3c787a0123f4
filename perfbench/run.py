#!/usr/bin/env python3
"""Build the live-cluster benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload counter-closed --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ at the
repository root: the Go build cache, the binary, the nodes' WAL directories
and the traced run's span dump. Arguments are passed to the benchmark
unchanged; see perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        GOPATH=os.path.join(build, "go-path"),
        # The go command keeps its telemetry counters under the user config
        # directory; point it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    # Build output goes to stderr: the last line of stdout is the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode)
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
