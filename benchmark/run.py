#!/usr/bin/env python3
"""Builds and runs the SOTER repository benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package and the `soter-worker` binary its
catalog-campaign workload spawns (release profile, offline, into
$CARGO_TARGET_DIR, default `.bench_build` under the current directory),
then runs the benchmark binary with the given arguments and exits with
its status.  Build output goes to stderr; stdout is the benchmark's own.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    manifest = str(HERE / "Cargo.toml")
    for extra in ([], ["-p", "soter-serve", "--bin", "soter-worker"]):
        build = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", manifest, *extra]
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: benchmark build failed", file=sys.stderr)
            return 1
    binary = target / "release" / "soter-benchmark"
    return subprocess.run([str(binary), *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
