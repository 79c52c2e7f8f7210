// Spans recorded by the traced run, kept in memory and written out as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing) when
// the run ends. Disabled, a Tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  const char* cat = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t tid = 0;         ///< viewer track
  std::uint64_t id = 0;          ///< shared by the spans of one request
  std::string args;              ///< extra JSON members, e.g. "\"tokens\":8"
  /// Request spans overlap one another, so they are written as nestable
  /// async events keyed by `id`; replay spans nest in time on `tid`.
  bool async = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records one finished span; thread-safe.
  void add(SpanRecord span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(std::move(span));
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::size_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Writes every span as a complete ("X") event, microseconds relative
  /// to `origin`, plus `metadata` (a JSON object) under "otherData".
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, Clock::time_point origin,
                         const std::string& metadata) const;

  /// Upper bound on retained spans, so a long traced run stays bounded.
  static constexpr std::size_t kMaxSpans = 400000;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

/// Records a scope as one span (when the tracer is enabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, const char* cat,
             std::uint32_t tid, std::uint64_t id = 0)
      : tracer_(tracer), start_(Clock::now()) {
    rec_.name = std::move(name);
    rec_.cat = cat;
    rec_.tid = tid;
    rec_.id = id;
  }
  ~ScopedSpan() {
    rec_.start = start_;
    rec_.end = Clock::now();
    tracer_.add(std::move(rec_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  SpanRecord rec_;
};

}  // namespace perfbench
