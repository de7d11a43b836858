#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 12 --trace 0

The Go toolchain's caches, temporary files and the binary all stay under
the build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
checkout. The last line of standard output is the benchmark's JSON result;
the exit code is non-zero when the build fails or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark's own deadline, under the 180 s a run may take.
RUN_TIMEOUT_S = 175


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    fallback = "/usr/local/go/bin/go"
    return fallback if os.path.exists(fallback) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTMPDIR": os.path.join(build, "go-tmp"),
        "TMPDIR": os.path.join(build, "go-tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "GOMAXPROCS": "2",
    })
    for d in ("go-tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    go = go_binary()
    if go is None:
        print("run.py: no Go toolchain found", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
