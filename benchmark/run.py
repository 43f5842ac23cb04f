#!/usr/bin/env python3
"""Builds es_benchmark from source (Release) and runs it.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload bgp_1m --seed 3 --seconds 15 --trace 0

Every argument is passed to es_benchmark unchanged (see benchmark/README.md).
The build tree is .bench_build/cmake under the checkout root.  Build output
goes to standard error, so the last line of standard output is
es_benchmark's result.  A failed build exits non-zero without printing one.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build" / "cmake"


def build() -> bool:
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "es_benchmark", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main() -> int:
    if not build():
        print("benchmark/run.py: build failed", file=sys.stderr)
        return 1
    binary = BUILD_DIR / "es_benchmark"
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
