// The benchmark's own statistics and input generation. No library
// calls: everything here is checked by tests/test_stats.cpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile q (0 < q < 100) of `v`, or nullopt when fewer
/// than kTailSamples samples lie beyond its rank — a tail estimate the
/// sample cannot support is refused, never extrapolated.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || q <= 0.0 || q >= 100.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * double(n)));
  if (rank < 1 || n - rank < kTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  return v[rank - 1];
}

/// Samples needed before percentile(q) is reported.
inline std::size_t samples_for(double q) {
  std::size_t n = kTailSamples + 1;
  while (n - static_cast<std::size_t>(std::ceil(q / 100.0 * double(n))) <
         kTailSamples)
    ++n;
  return n;
}

/// Median of any non-empty sample (no tail requirement: used for
/// repeated timings of one deterministic call, not for latencies).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// percentile(v, q), or throws std::runtime_error when the sample cannot
/// support it: a reported percentile is never swapped for another one.
inline double required_percentile(const std::vector<double>& v, double q,
                                  const std::string& what) {
  if (auto p = percentile(v, q)) return *p;
  throw std::runtime_error(what + ": p" + std::to_string(int(q)) + " needs " +
                           std::to_string(samples_for(q)) + " samples, got " +
                           std::to_string(v.size()));
}

/// A percentile taken over consecutive windows of a sample.
struct Windowed {
  double value = 0.0;         ///< median of the windows' percentiles
  double q1 = 0.0, q3 = 0.0;  ///< their lower and upper quartile
  std::size_t windows = 0;
};

/// Percentile q of `v` (samples in time order) over consecutive windows of
/// samples_for(q) samples each, the last absorbing the remainder. The
/// median of the windows' values: a slow spell of a shared machine that
/// covers fewer than half the windows does not move it. With fewer than
/// two windows it is required_percentile(v, q).
inline Windowed windowed_percentile(const std::vector<double>& v, double q,
                                    const std::string& what) {
  const std::size_t w = samples_for(q), k = v.size() / w;
  if (k < 2) {
    const double p = required_percentile(v, q, what);
    return Windowed{p, p, p, 1};
  }
  std::vector<double> per;
  for (std::size_t i = 0; i < k; ++i)
    per.push_back(*percentile(
        std::vector<double>(v.begin() + long(i * w),
                            i + 1 == k ? v.end() : v.begin() + long(i * w + w)),
        q));
  std::sort(per.begin(), per.end());
  const auto at = [&](double f) {
    return per[std::size_t(f * double(k - 1) + 0.5)];
  };
  return Windowed{median(per), at(0.25), at(0.75), k};
}

// ------------------------------------------------------------------- rng

/// SplitMix64: the benchmark's own generator, so schedules do not depend
/// on the library's.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  SplitMix(std::uint64_t seed, std::string_view label) : s_(seed) {
    for (char c : label) s_ = (s_ ^ std::uint8_t(c)) * 0x100000001b3ull;
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() { return (double(next() >> 11) + 1.0) / 9007199254740992.0; }
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates with the benchmark's generator.
template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// `count` draws from the Zipf distribution over [lo, hi] (weight of the
/// k-th shortest length (k+1)^-skew), stratified: draw i takes the
/// inverse CDF at (i + u_i) / count and the draws are then shuffled, so
/// every seed yields nearly the same length mix and only order and
/// contents vary with the seed.
inline std::vector<std::uint32_t> zipf_lengths(std::size_t count,
                                               std::uint32_t lo,
                                               std::uint32_t hi, double skew,
                                               SplitMix& rng) {
  std::vector<double> cdf;
  double total = 0.0;
  for (std::uint32_t k = 0; k <= hi - lo; ++k) {
    total += std::pow(double(k + 1), -skew);
    cdf.push_back(total);
  }
  std::vector<std::uint32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (double(i) + rng.uniform()) / double(count) * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    out[i] = lo + std::uint32_t(std::min<std::ptrdiff_t>(
                      it - cdf.begin(), std::ptrdiff_t(hi - lo)));
  }
  shuffle(out, rng);
  return out;
}

/// `count` stratified uniform integers over [lo, hi], shuffled.
inline std::vector<std::uint32_t> uniform_lengths(std::size_t count,
                                                  std::uint32_t lo,
                                                  std::uint32_t hi,
                                                  SplitMix& rng) {
  return zipf_lengths(count, lo, hi, 0.0, rng);
}

// -------------------------------------------------------------- schedule

/// One request of an open-loop trace: when it is due (seconds after the
/// phase starts), its length, and which input variant it carries.
struct Arrival {
  double due_s = 0.0;
  std::uint32_t tokens = 0;
  std::uint32_t variant = 0;
  std::uint32_t new_tokens = 0;  ///< generation length (0 = encode)
};

/// What an open-loop trace draws per request.
struct TraceShape {
  double rate = 1.0;  ///< arrivals per second (Poisson)
  double seconds = 1.0;
  std::uint32_t min_tokens = 1, max_tokens = 1;
  double length_skew = 0.0;  ///< 0 = uniform lengths, > 0 = Zipf
  std::uint32_t variants = 1;  ///< distinct contents per length
  /// Arrivals continue past `seconds` until there are at least this many
  /// (so a tail percentile keeps its samples whatever the seed).
  std::size_t min_count = 0;
};

/// The deterministic open-loop trace for one seed: Poisson arrival
/// times over `seconds` (or until min_count), stratified lengths,
/// variant ids. A function of
/// (seed, label, shape) only — never of timing.
inline std::vector<Arrival> open_loop_trace(std::uint64_t seed,
                                            std::string_view label,
                                            const TraceShape& shape) {
  SplitMix arrivals(seed, std::string(label) + "/arrivals");
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(arrivals.uniform()) / shape.rate;
    if (t >= shape.seconds && out.size() >= shape.min_count) break;
    out.push_back(Arrival{t, 0, 0, 0});
  }
  SplitMix lengths(seed, std::string(label) + "/lengths");
  const auto toks = zipf_lengths(out.size(), shape.min_tokens,
                                 shape.max_tokens, shape.length_skew, lengths);
  SplitMix variants(seed, std::string(label) + "/variants");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].tokens = toks[i];
    out[i].variant = std::uint32_t(variants.below(shape.variants));
  }
  return out;
}

/// Byte image of a trace (the determinism test compares these).
inline std::string trace_bytes(const std::vector<Arrival>& trace) {
  std::string s(trace.size() * sizeof(Arrival), '\0');
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Arrival& a = trace[i];
    char* p = s.data() + i * sizeof(Arrival);
    std::copy_n(reinterpret_cast<const char*>(&a.due_s), sizeof a.due_s, p);
    p += sizeof a.due_s;
    for (std::uint32_t v : {a.tokens, a.variant, a.new_tokens}) {
      std::copy_n(reinterpret_cast<const char*>(&v), sizeof v, p);
      p += sizeof v;
    }
  }
  return s;
}

// -------------------------------------------------------------- outcomes

/// Requests sent and every way one can fail to produce a correct output.
struct FailureCount {
  std::size_t sent = 0;
  std::size_t shed = 0;        ///< refused at submit or shed while queued
  std::size_t failed = 0;      ///< the future carried another exception
  std::size_t mismatched = 0;  ///< delivered, but not the reference bits

  std::size_t bad() const { return shed + failed + mismatched; }
  double failed_frac() const {
    return sent == 0 ? 0.0 : double(bad()) / double(sent);
  }
  FailureCount& operator+=(const FailureCount& o) {
    sent += o.sent;
    shed += o.shed;
    failed += o.failed;
    mismatched += o.mismatched;
    return *this;
  }
};

/// How late an open-loop generator issued each request relative to when
/// it was due (a stalled generator shows up here, and so would make the
/// run invalid rather than silently flatter the latencies).
class LagRecorder {
 public:
  void record(double due_s, double issued_s) {
    lag_ms_.push_back(std::max(0.0, issued_s - due_s) * 1e3);
  }
  const std::vector<double>& samples() const { return lag_ms_; }
  double max_ms() const {
    return lag_ms_.empty() ? 0.0
                           : *std::max_element(lag_ms_.begin(), lag_ms_.end());
  }

 private:
  std::vector<double> lag_ms_;
};

/// CPU seconds this process has run so far, summed over all its threads.
/// The kernel leaves out the time a virtual CPU waited for the host
/// (steal), so a host that holds the CPUs back delays a request without
/// adding to this; a CPU that idles between requests adds nothing either.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// The open-loop generator: issues request i at start + due_i whatever
/// the system's state, recording how late each issue was. `issue(i)`
/// submits request i; a slow issue delays the ones after it, and the lag
/// recorder is what makes that visible.
template <typename Issue>
void pace_open_loop(const std::vector<Arrival>& trace,
                    std::chrono::steady_clock::time_point start,
                    LagRecorder& lag, Issue issue) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(trace[i].due_s)));
    lag.record(trace[i].due_s,
               std::chrono::duration<double>(Clock::now() - start).count());
    issue(i);
  }
}

}  // namespace perfbench
