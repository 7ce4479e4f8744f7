#!/usr/bin/env python3
"""Build and run the bcclap benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the library sources in
src/ plus the perfbench program) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the program. Build output goes
to standard error; the program's last line of standard output is the
result object. Exits non-zero, without a result line, if the build or the
run fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dense_clique", "sparse_expander", "lp_flow", "service_mix")


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    # The library reads these to pick engines, factor paths and default
    # worker counts; the benchmark fixes all three itself.
    env = {k: v for k, v in os.environ.items()
           if k not in ("BCCLAP_ENGINE", "BCCLAP_FACTOR_PATH", "BCCLAP_THREADS")}
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
