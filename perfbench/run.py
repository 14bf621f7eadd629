#!/usr/bin/env python3
"""Build the HARBOR benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload commit --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The Go build and module caches, the
binary, the sites' files and the trace file all live under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so nothing outside the
checkout is written. The arguments go to the benchmark unchanged; see
README.md in this directory for the workloads and metrics.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    trace_out = os.path.join(build, "perfbench-trace.jsonl")
    os.execve(binary, [binary, "--trace-out", trace_out] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
