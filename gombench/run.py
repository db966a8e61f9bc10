#!/usr/bin/env python3
"""Builds the GOM-FM end-to-end benchmark from source and runs one workload.

    python3 gombench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree in .bench_build at the
root of the checkout (or in $CARGO_TARGET_DIR when set); later calls only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Traced runs (--trace 1)
also write their spans to .bench_build/traces/<workload>.csv.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_read", "serve_write", "embedded_read")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", out, "--target", "gombench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "gombench")


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="self-test: plant one wrong expected value")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".csv")]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    # The benchmark spawns set-up repeats; on a timeout its whole process
    # group is killed, so none of them outlives the run.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
