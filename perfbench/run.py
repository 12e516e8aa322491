#!/usr/bin/env python3
"""Builds and runs the simulator's host-time benchmark (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root.  The benchmark is built from source into the
directory named by $CARGO_TARGET_DIR (default .bench_build), which also holds
the run's scratch files (journals, span CSVs).  The last line of stdout is
the run's JSON result; build output goes to stderr.  --record re-runs every
catalogued job once and rewrites golden/digests.txt, the recorded output
digests every run is checked against.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "golden" / "digests.txt"
WORKLOADS = ("paper_tables", "server_campaign", "fleet_clone", "campaign_replay")
# A run measures --seconds, then finishes its last cycle; this bounds it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "simbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "simbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record golden/digests.txt from the current program")
    args = parser.parse_args()
    if not args.record and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--work-dir", str(work_dir), "--goldens", str(GOLDENS)]
    if args.record:
        cmd.append("--record")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, timeout=None if args.record else RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
