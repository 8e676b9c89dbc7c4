#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is built from source
with cargo into $CARGO_TARGET_DIR (default `.bench_build`). Each run gets
a scratch directory there for the program's tune cache and diagnostics
bundles, removed afterwards; traced runs leave their spans in
`<target dir>/perfbench-out/`. The last line of stdout is the result JSON.
"""

import os
import shutil
import subprocess
import sys
import tempfile


def main():
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    os.makedirs(target, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-run-", dir=target)
    try:
        env["SW_TUNE_CACHE"] = os.path.join(scratch, "tune_cache.json")
        env["SW_DIAG_DIR"] = os.path.join(scratch, "diagnostics")
        out = os.path.join(target, "perfbench-out")
        run = subprocess.run([binary, *sys.argv[1:], "--out", out], cwd=root, env=env)
        return run.returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
