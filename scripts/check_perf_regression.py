#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_kernels.json.

Compares a freshly produced BENCH_kernels.json against the committed
baseline (bench/baseline_kernels.json) record by record, keyed on
(name, shape). Two metrics are gated per record:

  * the measured value (the "gflops" field — GFLOP/s, req/s, or ms
    depending on the record's "unit"): for throughput units a DROP
    beyond the tolerance fails; for latency units ("ms") a RISE beyond
    the tolerance fails. Absolute numbers vary with the runner, so the
    tolerance is env-overridable: VENOM_PERF_TOLERANCE (percent,
    default 20), and latency rows — wall-clock, the most
    runner-sensitive — get their own VENOM_PERF_LATENCY_TOLERANCE
    (percent, defaults to VENOM_PERF_TOLERANCE).
  * speedup_vs_seed, when the baseline records one != 1.0: this is a
    same-machine ratio (fast kernel vs seed scalar, batched serving vs
    sequential loop), far more runner-stable than absolute numbers, so
    it gets its own VENOM_PERF_RATIO_TOLERANCE (percent, defaults to
    VENOM_PERF_TOLERANCE) — keep it strict even when the absolute
    tolerance is widened for hosted runners, or the ratio check stops
    catching real same-run regressions. A baseline record whose healthy
    ratio sits near or below 1.0 (e.g. ragged vs aligned cost per
    element) opts in with "ratio_gate": true.

A baseline record missing from the fresh file fails the gate (a bench
that silently stopped emitting is a regression too). Fresh records not
in the baseline are reported but never fail.

Usage: check_perf_regression.py <baseline.json> <fresh.json>
"""

import json
import os
import sys

LATENCY_UNITS = {"ms", "us", "s"}


def load_records(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return {(r["name"], r["shape"]): r for r in data}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline = load_records(sys.argv[1])
    fresh = load_records(sys.argv[2])
    tolerance = float(os.environ.get("VENOM_PERF_TOLERANCE", "20")) / 100.0
    latency_tolerance = float(
        os.environ.get("VENOM_PERF_LATENCY_TOLERANCE",
                       str(tolerance * 100))) / 100.0
    ratio_tolerance = float(
        os.environ.get("VENOM_PERF_RATIO_TOLERANCE",
                       str(tolerance * 100))) / 100.0

    failures = []
    print(f"perf gate: {len(baseline)} baseline records, tolerance "
          f"{tolerance:.0%} (latency {latency_tolerance:.0%}, ratios "
          f"{ratio_tolerance:.0%}; VENOM_PERF_*_TOLERANCE to override)")
    for key, base in sorted(baseline.items()):
        name, shape = key
        label = f"{name} [{shape}]"
        if key not in fresh:
            failures.append(f"{label}: missing from fresh results")
            continue
        cur = fresh[key]
        unit = base.get("unit", "gflops")
        base_val, cur_val = base["gflops"], cur["gflops"]
        if base_val > 0:
            if unit in LATENCY_UNITS:
                worse = (cur_val - base_val) / base_val  # higher ms = worse
                tol = latency_tolerance
            else:
                worse = (base_val - cur_val) / base_val  # lower thpt = worse
                tol = tolerance
            status = "OK" if worse <= tol else "REGRESSION"
            print(f"  {status:10s} {label}: {cur_val:.3f} {unit} "
                  f"(baseline {base_val:.3f}, {-worse:+.1%})")
            if worse > tol:
                failures.append(
                    f"{label}: {cur_val:.3f} {unit} vs baseline "
                    f"{base_val:.3f} ({-worse:+.1%} beyond -{tol:.0%})")
        base_speedup = base.get("speedup_vs_seed", 1.0)
        if base_speedup > 1.0 or base.get("ratio_gate", False):
            cur_speedup = cur.get("speedup_vs_seed", 1.0)
            worse = (base_speedup - cur_speedup) / base_speedup
            status = "OK" if worse <= ratio_tolerance else "REGRESSION"
            print(f"  {status:10s} {label}: speedup {cur_speedup:.2f}x "
                  f"(baseline {base_speedup:.2f}x, {-worse:+.1%})")
            if worse > ratio_tolerance:
                failures.append(
                    f"{label}: speedup {cur_speedup:.2f}x vs baseline "
                    f"{base_speedup:.2f}x ({-worse:+.1%} beyond "
                    f"-{ratio_tolerance:.0%})")

    extra = sorted(set(fresh) - set(baseline))
    for name, shape in extra:
        print(f"  NEW        {name} [{shape}] (not gated)")

    if failures:
        print(f"\nperf gate FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
