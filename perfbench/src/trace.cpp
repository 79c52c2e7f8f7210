#include "trace.hpp"

#include <cstdio>

namespace perfbench {

bool Tracer::write_chrome_json(const std::string& path,
                               Clock::time_point origin,
                               const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[\n",
               metadata.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const SpanRecord& s : spans_) {
    // Span names are the benchmark's own identifiers: no escaping needed
    // beyond what they already avoid (quotes, backslashes, controls).
    const auto id = static_cast<unsigned long long>(s.id);
    if (s.async) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"pid\":1,"
                   "\"tid\":%u,\"id\":%llu,\"ts\":%.3f,\"args\":{%s}},\n"
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"pid\":1,"
                   "\"tid\":%u,\"id\":%llu,\"ts\":%.3f}",
                   first ? "" : ",\n", s.name.c_str(), s.cat, s.tid, id,
                   us(s.start), s.args.c_str(), s.name.c_str(), s.cat, s.tid,
                   id, us(s.end));
    } else {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu%s%s}}",
                   first ? "" : ",\n", s.name.c_str(), s.cat, s.tid,
                   us(s.start), us(s.end) - us(s.start), id,
                   s.args.empty() ? "" : ",", s.args.c_str());
    }
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
