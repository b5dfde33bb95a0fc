#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the tpsl
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the benchmark binary with its work files under
.bench_work. The binary's last line of standard output is the result
object; this script passes it through and exits non-zero, printing no
result, when the build or the run fails. --tiny scales every input down
for the benchmark's own tests.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
WORKLOADS = ("oocore_rmat_t1", "serve_mixed")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tpsl sources next to perfbench/; run from "
                 "the root of a checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in [1, 60]")
    # Keep the compiler's and the binary's scratch files in the checkout.
    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.tiny:
        command.append("--tiny")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    lines = stdout.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: benchmark binary exited with {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        sys.exit("perfbench: benchmark binary printed no result line")
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
