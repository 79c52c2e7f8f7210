// Self-tests of the benchmark's own statistics. Plain checks that hold
// in every build (no assert): the first failure prints and exits 1.
//
//   perfbench_selftest [trace.json]
//
// With an argument it also writes a small Chrome trace there, which the
// runner (run.py --self-test) parses as JSON.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(double(n - i));  // unsorted
  return v;
}

void test_percentile_refuses_thin_tails() {
  check(!percentile(ramp(19), 50).has_value(), "p50 refused with 19 samples");
  check(percentile(ramp(20), 50).value_or(-1) == 10.0,
        "p50 of 1..20 is 10 (nearest rank) with 10 samples beyond");
  check(!percentile(ramp(99), 90).has_value(), "p90 refused with 99 samples");
  check(percentile(ramp(100), 90).value_or(-1) == 90.0, "p90 of 1..100 is 90");
  check(!percentile(ramp(999), 99).has_value(), "p99 refused with 999 samples");
  check(percentile(ramp(1000), 99).value_or(-1) == 990.0,
        "p99 of 1..1000 is 990");
  check(samples_for(50) == 20 && samples_for(90) == 100 &&
            samples_for(99) == 1000,
        "samples_for matches the refusal rule");
  bool threw = false;
  try {
    required_percentile(ramp(120), 99, "latency");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a required p99 of 120 samples fails the run");
  check(required_percentile(ramp(120), 90, "latency") == 108.0,
        "a supported required percentile is the nearest-rank value");
  check(!percentile({}, 50).has_value(), "empty sample refused");
}

void test_windowed_percentile_resists_a_slow_spell() {
  // 5 windows of 20 samples for p50; the second window runs 10x slower.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < 20; ++i)
      v.push_back((w == 1 ? 10.0 : 1.0) * (1 + i % 4));
  check(windowed_percentile(v, 50, "latency").value == 2.0,
        "one slow window of five leaves the windowed p50 unchanged");
  check(percentile(v, 50).value_or(-1) == 3.0,
        "while the plain p50 moves with it");
  const std::vector<double> one = ramp(30);
  check(windowed_percentile(one, 50, "latency").value == *percentile(one, 50),
        "a single window is the plain percentile");
}

void test_schedule_is_deterministic() {
  TraceShape shape;
  shape.rate = 300;
  shape.seconds = 5;
  shape.min_tokens = 4;
  shape.max_tokens = 32;
  shape.length_skew = 1.0;
  shape.variants = 8;
  const auto a = open_loop_trace(42, "serve_short/rung0", shape);
  const auto b = open_loop_trace(42, "serve_short/rung0", shape);
  const auto c = open_loop_trace(43, "serve_short/rung0", shape);
  check(!a.empty() && trace_bytes(a) == trace_bytes(b),
        "same seed: byte-identical schedule and request trace");
  check(trace_bytes(a) != trace_bytes(c), "another seed: another trace");
  bool sorted = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sorted = sorted && (i == 0 || a[i - 1].due_s < a[i].due_s);
    in_range = in_range && a[i].tokens >= 4 && a[i].tokens <= 32 &&
               a[i].variant < 8 && a[i].due_s < 5.0;
  }
  check(sorted && in_range, "arrivals ascend and draws stay in range");
  const double rate = double(a.size()) / shape.seconds;
  check(rate > 270 && rate < 330, "Poisson arrivals near the offered rate");
}

void test_failed_frac_counts_every_failure() {
  FailureCount fc;
  fc.sent = 20;
  check(fc.failed_frac() == 0.0, "no failures: 0");
  fc.shed = 1;
  check(fc.failed_frac() == 0.05, "a shed counts");
  fc.failed = 2;
  check(fc.failed_frac() == 0.15, "an exception counts");
  fc.mismatched = 1;
  check(fc.failed_frac() == 0.20, "a mismatch counts");
  FailureCount sum;
  sum += fc;
  sum += fc;
  check(sum.sent == 40 && sum.bad() == 8, "counts accumulate");
}

void test_stalled_generator_shows_as_lag() {
  std::vector<Arrival> trace;
  for (int i = 0; i < 40; ++i) trace.push_back(Arrival{0.001 * i, 1, 0, 0});
  LagRecorder steady, stalled;
  pace_open_loop(trace, std::chrono::steady_clock::now(), steady,
                 [](std::size_t) {});
  pace_open_loop(trace, std::chrono::steady_clock::now(), stalled,
                 [](std::size_t i) {
                   if (i == 5)
                     std::this_thread::sleep_for(std::chrono::milliseconds(30));
                 });
  check(stalled.max_ms() >= 20.0,
        "a 30 ms stall delays later issues by >= 20 ms");
  check(steady.max_ms() < stalled.max_ms(),
        "an unstalled generator lags less");
  check(stalled.samples().size() == trace.size(), "every issue is recorded");
}

void test_process_cpu_counts_work_not_waiting() {
  double c0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double slept = process_cpu_s() - c0;
  c0 = process_cpu_s();
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    volatile double x = 1.0;
    while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001;
  });
  const auto until = Clock::now() + std::chrono::milliseconds(50);
  volatile double y = 1.0;
  while (Clock::now() < until) y = y * 1.0000001;
  stop = true;
  worker.join();
  const double busy = process_cpu_s() - c0;
  check(slept < 0.01, "a 50 ms sleep costs under 10 ms of CPU");
  check(busy > 0.03 && busy > 4 * slept,
        "two threads busy for 50 ms cost over 30 ms of CPU");
}

void write_sample_trace(const std::string& path) {
  Tracer tracer(true);
  const auto t0 = Clock::now();
  {
    ScopedSpan outer(tracer, "outer", "replay", 2);
    ScopedSpan inner(tracer, "inner", "op", 2);
  }
  SpanRecord req;
  req.name = "request";
  req.cat = "request";
  req.start = t0;
  req.end = Clock::now();
  req.tid = 1;
  req.id = 7;
  req.args = "\"batch_tokens\":8";
  req.async = true;
  tracer.add(req);
  Tracer off(false);
  off.add(req);
  check(tracer.size() == 3 && off.size() == 0,
        "spans are kept only when tracing is on");
  check(tracer.write_chrome_json(path, t0, "{\"test\":true}"),
        "trace file written");
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile_refuses_thin_tails();
  test_windowed_percentile_resists_a_slow_spell();
  test_schedule_is_deterministic();
  test_failed_frac_counts_every_failure();
  test_stalled_generator_shows_as_lag();
  test_process_cpu_counts_work_not_waiting();
  if (argc > 1) write_sample_trace(argv[1]);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
