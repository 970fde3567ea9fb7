#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload resnet18-b1 --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary live in the build
directory inside the checkout: $CARGO_TARGET_DIR if set, else .bench_build.
A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go", "cache"),
        "GOMODCACHE": os.path.join(build, "go", "mod"),
        "GOPATH": os.path.join(build, "go", "path"),
        "GOTMPDIR": os.path.join(build, "go", "tmp"),
        "TMPDIR": os.path.join(build, "go", "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "go", "config"),
        "XDG_CACHE_HOME": os.path.join(build, "go", "xdgcache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    # The build's own output goes to stderr: stdout carries only the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
