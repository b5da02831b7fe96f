#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload m3v_tilemux --seed 1 --seconds 20 --trace 0

Builds the perfbench Go program (its own module under perfbench/, which
uses the simulator's sources from the repository root) into the build
directory, $CARGO_TARGET_DIR or .bench_build, then runs it with the given
arguments. Go's build cache, temporary files and home directory are kept
inside the build directory as well. The last line of standard output is
the benchmark's JSON result; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in [("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("GOPATH", "gopath"),
                     ("PPROF_TMPDIR", "tmp")]:
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off",
               CGO_ENABLED="0", CARGO_TARGET_DIR=build)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
