#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program in this directory is built into $CARGO_TARGET_DIR
(default .bench_build) with every Go cache kept there too and module
downloads disabled, then run with the same arguments. Its last stdout
line is the result; the exit code is the program's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ref-ms", type=float, default=60.0,
                    help="R0: reference-kernel milliseconds per reference-second")
    args = ap.parse_args()

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go", "cache"),
        "GOPATH": os.path.join(build, "go", "path"),
        "GOMODCACHE": os.path.join(build, "go", "path", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "go", "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "go", "config"),
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build, "work", args.workload)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-ref-ms", str(args.ref_ms), "-workdir", workdir]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
