#!/usr/bin/env python3
"""Build the benchmark, then run one workload or all three.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-cold --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own that builds the repository's
crates from source into $CARGO_TARGET_DIR (default `.bench_build` at the
repository root). Cargo's output goes to standard error. The last line of
standard output is the workload's JSON result. Stores and span files go to
`perfbench/out`.

`--workload all` runs each workload in its own process, one after the
other, and exits non-zero if any of them failed an output check.

Exit status: the benchmark's own (0 when a result was printed), or non-zero
without a result when the build fails, e.g. outside a repository checkout.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["matrix-cold", "core-long", "fleet-day"]


def build():
    """Builds the benchmark; returns the binary's path, or None on failure."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs one workload; returns (exit status, its JSON result or None)."""
    cmd = [binary, *args, "--out-dir", os.path.join(HERE, "out")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    at = argv.index("--workload") if "--workload" in argv else -1
    if at < 0 or argv[at + 1 : at + 2] != ["all"]:
        return run(binary, argv)[0]
    failed = False
    for workload in WORKLOADS:
        status, result = run(binary, argv[:at] + ["--workload", workload] + argv[at + 2 :])
        failed |= status != 0 or result is None or not result["correct"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
