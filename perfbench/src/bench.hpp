// Shared declarations of the benchmark: options, metric sets and
// the per-workload entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve_short's fixed rate ladder (req/s), its nominal rung, and the
  /// p99 latency limit sustained_rps is judged against.
  std::vector<double> ladder;
  double nominal_rps = 0.0;
  double p99_limit_ms = 0.0;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
  std::string note;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {}) {
    items_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one run of one workload produced.
struct RunOutput {
  MetricSet e2e;    ///< end-to-end metrics (untraced run)
  MetricSet layer;  ///< per-layer metrics (traced run)
  FailureCount failures;
};

/// Adds sampled percentile q under `name`; throws (failing the run) when
/// the sample cannot support it, so a name never carries another
/// percentile than the one its workload defines.
void add_percentile(MetricSet& out, const std::string& name,
                    const std::vector<double>& samples, double q,
                    const std::string& unit);

RunOutput run_serve_short(const Options& opt, Tracer& tracer);
RunOutput run_prefill_long(const Options& opt, Tracer& tracer);
RunOutput run_decode_stream(const Options& opt, Tracer& tracer);

}  // namespace perfbench
