#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ladder r1,r2,...] [--nominal r] [--p99-limit-ms ms]
    python3 perfbench/run.py --self-test

`--workload all` runs every workload in turn, each printing its own
metrics and result line, and exits with the worst exit code.

Run from the repository root. The C++ benchmark is configured and built
on first use under $CARGO_TARGET_DIR (default .bench_build)/perfbench,
from perfbench/CMakeLists.txt, which compiles the library from src/.
Build output goes to stderr; the benchmark's stdout passes through, so
its last line is the result JSON.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_short", "prefill_long", "decode_stream")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    os.makedirs(out, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, **quiet)


def self_test(out):
    trace = os.path.join(out, "selftest_trace.json")
    rc = subprocess.run([os.path.join(out, "perfbench_selftest"), trace],
                        timeout=RUN_TIMEOUT_S).returncode
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    ok = rc == 0 and len(events) == 4
    print("ok  " if ok else "FAIL", "sample trace parses as trace-event JSON")
    return 0 if ok else 1


def main():
    for var in ("VENOM_BACKEND", "VENOM_TUNE_CACHE"):
        if os.environ.get(var):
            sys.exit(f"perfbench: refusing to run with {var} set")
    p = argparse.ArgumentParser()
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ladder", default="")
    p.add_argument("--nominal", default="0")
    p.add_argument("--p99-limit-ms", default="0")
    args = p.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.self_test:
        return self_test(out)
    if not args.workload:
        sys.exit("perfbench: --workload is required")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        cmd = [os.path.join(out, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out]
        if args.ladder:
            cmd += ["--ladder", args.ladder, "--nominal", args.nominal,
                    "--p99-limit-ms", args.p99_limit_ms]
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run timed out")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
