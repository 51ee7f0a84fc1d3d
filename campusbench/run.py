#!/usr/bin/env python3
"""Build and run the campus-server benchmark.

    python3 campusbench/run.py --workload campus_open --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
benchmark and pblpar's serving libraries from ../src in Release mode under
.bench_build/ (a few minutes); later calls only rebuild what changed. The
benchmark's spill files go to .bench_build/tmp. The last line of standard
output is one JSON object with the run's metrics; the exit code is 0 only
when every job's output matched its reference.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campusbench"
SCRATCH = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("campus_open", "wordcount_spill", "lossy_cluster")


def fail(message):
    print(f"campusbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configure once, then build the benchmark; True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "--target", "campusbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                return False
    return True


def source_digest():
    """SHA-256 over the paths and bytes of src/, the code under test."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in [1, 600]")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no pblpar sources under {ROOT / 'src'}")
    if not build():
        return fail("build failed")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(SCRATCH))
    command = [str(BUILD / "campusbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(command, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
