#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <oltp-zipf|bank-paged|failover> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes through dune with its shared cache disabled, so nothing
is written outside the repository (build outputs land in _build/).
Build progress goes to standard error; the benchmark's own output,
whose last line is the JSON result, goes to standard output.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    fallback = os.path.expanduser(os.path.join("~", ".opam", "default", "bin", "dune"))
    return fallback if os.path.exists(fallback) else None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no dune-project and lib/ here; run from the repository root\n")
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
