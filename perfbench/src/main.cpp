// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <serve_short|prefill_long|decode_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--ladder r1,r2,...] [--nominal r] [--p99-limit-ms ms]
//             [--out-dir dir]
//
// Prints one "# name = value unit (n=samples)" line per metric and, as
// the last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (whose spans are also written as Chrome trace-event JSON to
// <out-dir>/trace_<workload>_<seed>.json). Exits 1 on any output
// mismatch, 2 on a usage or environment error or when a sample cannot
// support a percentile the workload reports.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "api.hpp"
#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    out.push_back(std::stod(s.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

std::string env_json() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpu_features\":\"%s\",\"pool_threads\":%zu,"
                "\"compiler\":\"%s\",\"flags\":\"%s\"}",
                api::cpu_fingerprint().c_str(), api::pool_threads(),
                PERFBENCH_COMPILER, PERFBENCH_FLAGS);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // The library consults these at dispatch time: a forced backend or a
  // foreign tuning cache would silently change what is measured.
  for (const char* var : {"VENOM_BACKEND", "VENOM_TUNE_CACHE"})
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }

  Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--ladder") opt.ladder = parse_list(val);
      else if (key == "--nominal") opt.nominal_rps = std::stod(val);
      else if (key == "--p99-limit-ms") opt.p99_limit_ms = std::stod(val);
      else if (key == "--out-dir") opt.out_dir = val;
      else return usage(("unknown argument " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  if (opt.workload == "serve_short") {
    bool has_nominal = false;
    for (double r : opt.ladder) has_nominal |= r == opt.nominal_rps;
    if (!has_nominal || opt.p99_limit_ms <= 0.0)
      return usage("serve_short needs --ladder, a --nominal rung on it, "
                   "and --p99-limit-ms");
  }

  const std::string env = env_json();
  std::printf("# env %s\n", env.c_str());
  Tracer tracer(opt.trace);
  const auto origin = Clock::now();
  RunOutput out;
  try {
    if (opt.workload == "serve_short") out = run_serve_short(opt, tracer);
    else if (opt.workload == "prefill_long") out = run_prefill_long(opt, tracer);
    else if (opt.workload == "decode_stream") out = run_decode_stream(opt, tracer);
    else return usage("unknown --workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  if (opt.trace) {
    out.layer.add("trace.spans", double(tracer.size()), "count", 0,
                  std::to_string(tracer.dropped()) + " dropped");
    const std::string path = opt.out_dir + "/trace_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_json(path, origin, env)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("# trace written to %s\n", path.c_str());
  }

  for (const MetricSet* set : {&out.e2e, &out.layer})
    for (const Metric& m : set->items())
      std::printf("# %s = %.6g %s%s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(),
                  m.samples > 0 ? (" (n=" + std::to_string(m.samples) + ")").c_str()
                                : "",
                  m.note.empty() ? "" : " -- ", m.note.c_str());

  const FailureCount& fc = out.failures;
  std::printf("# failures: sent %zu shed %zu failed %zu mismatched %zu\n",
              fc.sent, fc.shed, fc.failed, fc.mismatched);
  const bool correct = fc.mismatched == 0 && fc.failed == 0;
  const MetricSet& shown = opt.trace ? out.layer : out.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(fc.sent);
  json += ", \"failed\": " + std::to_string(fc.bad());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : shown.items()) {
    if (m.name == "failed_frac") continue;  // carried by attempted/failed
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
