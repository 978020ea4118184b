#!/usr/bin/env python3
"""Build and run the whole-system benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload commit-real --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test --workload pop-100k --seed 1

Builds perfbench/algobench.exe with dune from the sources in this
checkout, then runs one workload in a fresh process. The last line of
standard output is the JSON result; reports and span traces land in
perfbench/_out/. Exits non-zero when the build fails or a correctness
check fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/algobench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "algobench.exe")
OUT = os.path.join(ROOT, "perfbench", "_out")
SOURCES = ("dune-project", "lib", "perfbench")


def revision():
    """A digest of the sources the benchmark builds from, so the stamp
    names the code as it is, committed or not."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    # The shared dune cache lives outside the checkout; build without it.
    env = {**os.environ, "DUNE_CACHE": "disabled"}
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, TARGET], cwd=ROOT, env=env, stdout=sys.stderr
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    args = [EXE, *sys.argv[1:], "--out", OUT, "--revision", revision()]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
