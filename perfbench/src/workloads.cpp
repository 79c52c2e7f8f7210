// The three serving workloads. Each builds its deployment several times
// (set-up is measured), drives the library through the public serving
// API from at most two client threads, stops the clock, and only then
// checks every output against an independently built reference encoder.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api.hpp"
#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

void add_percentile(MetricSet& out, const std::string& name,
                    const std::vector<double>& samples, double q,
                    const std::string& unit) {
  char note[16];
  std::snprintf(note, sizeof note, "p%g", q);
  out.add(name, required_percentile(samples, q, name), unit, samples.size(),
          note);
}

namespace {

constexpr int kSetupReps = 9;
constexpr std::size_t kVerifyThreads = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Runs fn(i) for i in [0, n) on up to kVerifyThreads threads.
template <typename Fn>
void parallel_indices(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(n, kVerifyThreads); ++t)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (std::thread& t : threads) t.join();
}

// ------------------------------------------------------------ deployment

struct Deployment {
  api::Model model;
  std::unique_ptr<api::Server> server;
};

/// Builds model + server kSetupReps times (keeping the last) and records
/// the median of each set-up step: setup_s is the median total.
template <typename Warm>
Deployment deploy(const api::ModelSpec& ms, const api::ServeSpec& ss,
                  Warm warm, RunOutput& out) {
  std::vector<double> total, build, sparsify, quantize, start, warmup;
  Deployment d;
  for (int r = 0; r < kSetupReps; ++r) {
    d.server.reset();  // tear the previous deployment down first
    const auto t0 = Clock::now();
    api::BuildTimes bt;
    api::Model model = api::Model::build(ms, &bt);
    const auto t1 = Clock::now();
    auto server = std::make_unique<api::Server>(model, ss);
    const auto t2 = Clock::now();
    warm(model, *server);
    const auto t3 = Clock::now();
    server->reset_stats();
    total.push_back(ms_between(t0, t3) / 1e3);
    build.push_back(bt.encoder_build_s);
    sparsify.push_back(bt.sparsify_s);
    quantize.push_back(bt.quantize_s);
    start.push_back(ms_between(t1, t2) / 1e3);
    warmup.push_back(ms_between(t2, t3) / 1e3);
    d.model = std::move(model);
    d.server = std::move(server);
  }
  out.e2e.add("setup_s", median(total), "s", total.size());
  out.layer.add("setup.encoder_build_s", median(build), "s", build.size());
  out.layer.add("setup.sparsify_s", median(sparsify), "s", sparsify.size());
  out.layer.add("setup.quantize_s", median(quantize), "s", quantize.size());
  out.layer.add("setup.engine_start_s", median(start), "s", start.size());
  out.layer.add("setup.warmup_s", median(warmup), "s", warmup.size());
  out.layer.add("format.vnm.bytes", double(d.model.weight_bytes()), "bytes");
  return d;
}

/// Submits `reqs` concurrently and waits for all of them.
void warm_burst(api::Server& server,
                const std::vector<std::pair<api::Tensor, std::size_t>>& reqs) {
  std::vector<api::Ticket> tickets;
  for (const auto& [input, new_tokens] : reqs) {
    api::Ticket t;
    std::string err;
    const api::Outcome o =
        new_tokens == 0
            ? server.submit_encode(input, t, err)
            : server.submit_generate(input, new_tokens, [] {}, t, err);
    if (o == api::Outcome::kOk) tickets.push_back(std::move(t));
  }
  for (api::Ticket& t : tickets) {
    api::Reply r;
    std::string err;
    t.get(r, err);
  }
}

// ------------------------------------------------------------- requests

/// Every call-site timestamp of one request, relative to its phase start.
struct Record {
  double due_ms = 0.0, submit_ms = 0.0, ready_ms = 0.0;
  api::Outcome outcome = api::Outcome::kFailed;
  double queue_ms = 0.0, exec_ms = 0.0, prefill_ms = 0.0;
  std::size_t batch_tokens = 0;
  std::uint32_t replica = 0;
  std::uint64_t hash = 0;
  std::string error;
};

/// on_token timestamps of one generation request (written by a worker
/// thread, read after the future settles).
struct TokenLog {
  std::vector<Clock::time_point> at;
  std::size_t n = 0;
  void hit() {
    if (n < at.size()) at[n++] = Clock::now();
  }
};

void settle(api::Ticket& ticket, Record& rec, double ready_ms) {
  api::Reply reply;
  rec.ready_ms = ready_ms;
  rec.outcome = ticket.get(reply, rec.error);
  if (rec.outcome != api::Outcome::kOk) return;
  rec.queue_ms = reply.queue_ms;
  rec.exec_ms = reply.exec_ms;
  rec.prefill_ms = reply.prefill_ms;
  rec.batch_tokens = reply.batch_tokens;
  rec.replica = reply.replica;
  rec.hash = api::hash_bits(reply.output);
}

/// Open loop: the calling thread issues request i at start + due_i
/// whatever the system's state; one collector thread observes each
/// future as it becomes ready. Latency counts from the due time.
template <typename Submit>
std::vector<Record> drive_open_loop(const std::vector<Arrival>& trace,
                                    Submit submit, LagRecorder& lag,
                                    Clock::time_point& start) {
  std::vector<Record> rec(trace.size());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, api::Ticket>> incoming;
  bool done = false;
  start = Clock::now() + std::chrono::milliseconds(2);

  std::thread collector([&] {
    std::vector<std::pair<std::size_t, api::Ticket>> pending;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty())
          cv.wait(lock, [&] { return done || !incoming.empty(); });
        for (auto& p : incoming) pending.push_back(std::move(p));
        incoming.clear();
        if (pending.empty() && done) break;
      }
      if (pending.empty()) continue;
      pending.front().second.wait_us(200);
      const double now_ms = ms_between(start, Clock::now());
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].second.wait_us(0))
          settle(pending[i].second, rec[pending[i].first], now_ms);
        else if (kept++ != i)
          pending[kept - 1] = std::move(pending[i]);
      }
      pending.resize(kept);
    }
  });

  pace_open_loop(trace, start, lag, [&](std::size_t i) {
    api::Ticket ticket;
    Record& r = rec[i];
    const api::Outcome o = submit(i, ticket, r.error);
    r.due_ms = trace[i].due_s * 1e3;
    r.submit_ms = ms_between(start, Clock::now());
    if (o != api::Outcome::kOk) {
      r.outcome = o;
      r.ready_ms = r.submit_ms;
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    incoming.emplace_back(i, std::move(ticket));
    cv.notify_one();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  return rec;
}

/// What a closed loop ran: per request, the pool entry it carried, its
/// call-site timestamps and its on_token log.
struct ClosedLoopRun {
  std::vector<std::size_t> prompt;
  std::vector<Record> rec;
  std::vector<TokenLog> tokens;
  Clock::time_point start{};
  double cpu_s = 0.0;  ///< process CPU from start until every client ended
};

/// Closed loop over a pool of `pool` prompts: `clients` threads each keep
/// one request in flight and issue the next the moment the previous
/// one's future is ready, so the offered load follows the system's speed
/// instead of queueing behind it. The seed shuffles the pool into cycles
/// and client c issues entries c, c + clients, ... of that order, so which
/// prompts run is a function of the seed only. A client stops at the end
/// of one of its share's cycles once `seconds` have passed and it has
/// completed its share of `min_count`. `submit(prompt, log, ticket, err)`
/// issues one request; `log_size(prompt)` sizes its on_token log.
template <typename Submit, typename LogSize>
ClosedLoopRun drive_closed_loop(std::size_t clients, std::size_t pool,
                                double seconds, std::size_t min_count,
                                std::uint64_t seed, const std::string& label,
                                LogSize log_size, Submit submit) {
  struct Share {
    std::vector<std::size_t> index;  // position in the issue order
    std::deque<Record> rec;          // deques: the logs' addresses are
    std::deque<TokenLog> tokens;     // held by in-flight callbacks
  };
  const std::size_t share_cycle = pool / clients;
  const std::size_t share_min = (min_count + clients - 1) / clients;
  // The issue order: 1024 shuffled cycles, more than any run reaches.
  SplitMix rng(seed, label + "/order");
  std::vector<std::size_t> order, cycle(pool);
  for (std::size_t k = 0; k < 1024; ++k) {
    for (std::size_t j = 0; j < pool; ++j) cycle[j] = j;
    shuffle(cycle, rng);
    order.insert(order.end(), cycle.begin(), cycle.end());
  }

  ClosedLoopRun run;
  const double cpu0 = process_cpu_s();
  run.start = Clock::now();
  std::vector<Share> shares(clients);
  const auto client = [&](std::size_t c) {
    Share& sh = shares[c];
    for (std::size_t n = 0;; ++n) {
      const std::size_t i = c + n * clients;
      const double now_ms = ms_between(run.start, Clock::now());
      if (i >= order.size() || (n % share_cycle == 0 && n >= share_min &&
                                now_ms >= seconds * 1e3))
        break;
      sh.index.push_back(i);
      TokenLog& log = sh.tokens.emplace_back();
      log.at.resize(log_size(order[i]));
      Record& r = sh.rec.emplace_back();
      r.due_ms = ms_between(run.start, Clock::now());
      api::Ticket ticket;
      const api::Outcome o = submit(order[i], log, ticket, r.error);
      r.submit_ms = ms_between(run.start, Clock::now());
      if (o != api::Outcome::kOk) {
        r.outcome = o;
        r.ready_ms = r.submit_ms;
        continue;
      }
      while (!ticket.wait_us(1000000)) {
      }
      settle(ticket, r, ms_between(run.start, Clock::now()));
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  run.cpu_s = process_cpu_s() - cpu0;

  // Merge the shares in issue order, which is time order per client.
  std::vector<std::pair<std::size_t, std::size_t>> at;  // (client, k)
  for (std::size_t c = 0; c < clients; ++c)
    for (std::size_t k = 0; k < shares[c].index.size(); ++k)
      at.emplace_back(c, k);
  std::sort(at.begin(), at.end(), [&](const auto& a, const auto& b) {
    return shares[a.first].index[a.second] < shares[b.first].index[b.second];
  });
  for (const auto& [c, k] : at) {
    run.prompt.push_back(order[shares[c].index[k]]);
    run.rec.push_back(std::move(shares[c].rec[k]));
    run.tokens.push_back(std::move(shares[c].tokens[k]));
  }
  return run;
}

/// Request spans for the viewer: due->submit, submit->ready, and the
/// engine's own queue/exec split placed inside submit->ready.
void trace_requests(Tracer& tracer, const std::vector<Record>& rec,
                    Clock::time_point start, std::uint64_t id_base,
                    const std::vector<TokenLog>* tokens = nullptr) {
  if (!tracer.enabled()) return;
  const auto at = [start](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const Record& r = rec[i];
    const std::uint64_t id = id_base + i;
    const auto add = [&](const char* name, Clock::time_point a,
                         Clock::time_point b, std::string args = {}) {
      SpanRecord s;
      s.name = name;
      s.cat = "request";
      s.start = a;
      s.end = std::max(a, b);
      s.tid = 1;
      s.id = id;
      s.args = std::move(args);
      s.async = true;
      tracer.add(std::move(s));
    };
    add("request", at(r.due_ms), at(r.ready_ms),
        "\"batch_tokens\":" + std::to_string(r.batch_tokens) +
            ",\"replica\":" + std::to_string(r.replica));
    add("client.due_to_submit", at(r.due_ms), at(r.submit_ms));
    add("serving.submit_to_ready", at(r.submit_ms), at(r.ready_ms));
    if (r.outcome != api::Outcome::kOk) continue;
    add("serving.queue", at(r.submit_ms), at(r.submit_ms + r.queue_ms));
    add("serving.exec", at(r.submit_ms + r.queue_ms),
        at(r.submit_ms + r.queue_ms + r.exec_ms));
    if (tokens != nullptr && (*tokens)[i].n > 0)
      add("serving.first_token", at(r.submit_ms), (*tokens)[i].at[0]);
  }
}

/// Counts shed / failed outcomes of `rec` into `fc` (mismatches are
/// counted by the verification pass).
void count_outcomes(const std::vector<Record>& rec, FailureCount& fc) {
  for (const Record& r : rec) {
    ++fc.sent;
    if (r.outcome == api::Outcome::kShed) ++fc.shed;
    if (r.outcome == api::Outcome::kFailed) {
      ++fc.failed;
      std::fprintf(stderr, "perfbench: request failed: %s\n", r.error.c_str());
    }
  }
}

/// The serving-layer metrics every workload reports. `tail_q` is the
/// workload's tail percentile: its traced phase is sized to support it.
void add_serving_metrics(MetricSet& out, const std::vector<Record>& rec,
                         const api::ServerStats& st, const LagRecorder* lag,
                         const FailureCount& fc, double tail_q) {
  std::vector<double> queue, exec, prefill;
  for (const Record& r : rec) {
    if (r.outcome != api::Outcome::kOk) continue;
    queue.push_back(r.queue_ms);
    exec.push_back(r.exec_ms);
    if (r.prefill_ms > 0.0) prefill.push_back(r.prefill_ms);
  }
  add_percentile(out, "serving.queue_ms.p50", queue, 50, "ms");
  add_percentile(out, "serving.queue_ms.tail", queue, tail_q, "ms");
  add_percentile(out, "serving.exec_ms.p50", exec, 50, "ms");
  if (prefill.empty())
    out.add("serving.prefill_ms.p50", 0.0, "ms", 0, "no generation");
  else
    add_percentile(out, "serving.prefill_ms.p50", prefill, 50, "ms");
  out.add("serving.batch_tokens.mean", st.avg_batch_tokens, "tokens",
          st.batches);
  out.add("serving.batches", double(st.batches), "count");
  const auto [mn, mx] = std::minmax_element(st.replica_batches.begin(),
                                            st.replica_batches.end());
  out.add("serving.replica_batches.max_over_min",
          *mn == 0 ? double(*mx) : double(*mx) / double(*mn), "ratio",
          st.replica_batches.size());
  out.add("serving.shed", double(st.shed), "count");
  const double lookups = double(st.plan_hits + st.plan_misses);
  out.add("serving.plan_cache.hit_ratio",
          lookups > 0 ? double(st.plan_hits) / lookups : 0.0, "ratio",
          std::size_t(lookups));
  out.add("serving.decode_steps_per_batch",
          st.batches > 0 ? double(st.decode_steps) / double(st.batches) : 0.0,
          "count", st.batches);
  if (lag != nullptr)
    add_percentile(out, "client.generator_lag_ms.p99", lag->samples(), 99,
                   "ms");
  else
    out.add("client.generator_lag_ms.p99", 0.0, "ms", 0,
            "closed loop: every request is issued when due");
  out.add("client.failed_frac", fc.failed_frac(), "ratio", fc.sent);
}

/// serve_short measures the sustained rate on its ladder; the other
/// workloads run at one fixed rate and report 0 (not measured).
void add_no_ladder(MetricSet& out) {
  out.add("serving.sustained_rps", 0.0, "req/s", 0,
          "not measured: no rate ladder on this workload");
}

void add_overhead(MetricSet& out, double untraced, double traced) {
  out.add("trace.overhead_frac",
          untraced > 0.0 ? (traced - untraced) / untraced : 0.0, "ratio", 0,
          "traced vs untraced half of the same run, same schedule");
}

/// Time per output token of each delivered request: its whole latency,
/// due to ready, over the number of tokens its response carries.
template <typename Tokens>
std::vector<double> per_output_token(const std::vector<Record>& rec,
                                     Tokens tokens) {
  std::vector<double> v;
  for (std::size_t i = 0; i < rec.size(); ++i)
    if (rec[i].outcome == api::Outcome::kOk)
      v.push_back((rec[i].ready_ms - rec[i].due_ms) / double(tokens(i)));
  return v;
}

/// Adds percentile q of `samples` (in time order) over windows, the
/// end-to-end estimator: see windowed_percentile.
void add_windowed(MetricSet& out, const std::string& name,
                  const std::vector<double>& samples, double q) {
  const Windowed w = windowed_percentile(samples, q, name);
  char note[96];
  std::snprintf(note, sizeof note,
                "p%g, median of %zu window(s), quartiles %.4g..%.4g", q,
                w.windows, w.q1, w.q3);
  out.add(name, w.value, "ms", samples.size(), note);
}

/// The client-side latencies every workload reports from its untraced
/// phase: time to its first output (the whole output for encode, the
/// first on_token callback for generation) at p50 and at the workload's
/// tail percentile, and the p50 time per output token. They are per-layer
/// diagnostics, not end-to-end metrics: on a shared host they follow how
/// fast the host wakes the pool's idle CPUs (README.md).
void add_latency_metrics(MetricSet& out, const std::vector<double>& first,
                         const std::vector<double>& tpot, double tail_q) {
  add_windowed(out, "client.latency_p50_ms", first, 50);
  add_windowed(out, "client.latency_tail_ms", first, tail_q);
  add_windowed(out, "client.tpot_p50_ms", tpot, 50);
}

/// The end-to-end cost metric: the CPU the whole process spent over the
/// untraced measured phase (the library's batch workers and pool, and the
/// client's submit path) per delivered request.
void add_cpu_metric(MetricSet& out, double cpu_s, std::size_t requests) {
  if (requests == 0)
    throw std::runtime_error("no request delivered: no CPU cost to report");
  out.add("cpu_ms_per_request", 1e3 * cpu_s / double(requests), "ms",
          requests, "process CPU of the measured phase / delivered requests");
}

/// Gaps between consecutive on_token callbacks of one request, over the
/// traced phase (encode requests have no token stream).
void add_itl_metrics(MetricSet& out, const std::vector<double>& gaps,
                     double tail_q) {
  if (gaps.empty()) {
    out.add("client.itl_p50_ms", 0.0, "ms", 0, "no token stream");
    out.add("client.itl_tail_ms", 0.0, "ms", 0, "no token stream");
    return;
  }
  add_percentile(out, "client.itl_p50_ms", gaps, 50, "ms");
  add_percentile(out, "client.itl_tail_ms", gaps, tail_q, "ms");
}

/// Below the serving layer: replay, kernels, machine peak.
bool add_lower_layers(const api::Model& model, const ReplayBatch& batch,
                      std::size_t kv_capacity, int reps, std::uint64_t stream,
                      Tracer& tracer, RunOutput& out) {
  const bool ok =
      replay_transformer(model, batch, kv_capacity, reps, tracer, out.layer);
  const MachinePeak peak = measure_machine(api::pool_threads());
  out.layer.add("machine.fma_peak_gflops", peak.fma_gflops, "GFLOP/s");
  char note[128];
  std::snprintf(note, sizeof note,
                "%s: arrays %zu MiB vs 4x LLC %zu MiB%s",
                peak.stream_valid ? "valid" : "not valid", peak.stream_bytes >> 20,
                (4 * peak.llc_bytes) >> 20,
                peak.stream_valid ? "" : "; kernel bytes are computed only");
  out.layer.add("machine.stream_gbps", peak.stream_gbps, "GB/s", 0, note);
  out.layer.add("machine.stream_valid", peak.stream_valid ? 1.0 : 0.0, "bool");
  measure_kernels(model, batch.x.cols(), stream, peak.fma_gflops, out.layer);
  return ok;
}

/// One distinct encode input: (tokens, variant).
using InputKey = std::pair<std::uint32_t, std::uint32_t>;  // tokens, variant

std::uint64_t input_stream(std::uint64_t seed, const char* label,
                           InputKey key) {
  SplitMix s(seed, label);
  return s.next() ^ (std::uint64_t(key.first) << 32 | key.second);
}

}  // namespace

// ============================================================ serve_short

/// serve_short's client latency tail. Its p99 swung by up to a third
/// between runs with the host's load, its windowed p90 less (README.md).
constexpr double kServeTailQ = 90;

RunOutput run_serve_short(const Options& opt, Tracer& tracer) {
  RunOutput out;
  const api::ModelSpec ms{};  // bidirectional, 64:2:8 fp16
  api::ServeSpec ss;
  ss.replicas = 2;

  Deployment d = deploy(
      ms, ss,
      [](const api::Model& m, api::Server& s) {
        std::vector<std::pair<api::Tensor, std::size_t>> reqs;
        // One burst covering every request length twice.
        for (std::uint32_t i = 0; i < 58; ++i)
          reqs.emplace_back(
              api::make_input(m.spec().hidden, 4 + i % 29, 1000 + i), 0);
        warm_burst(s, reqs);
      },
      out);

  std::map<InputKey, api::Tensor> inputs;
  const auto shape_for = [&](double rate, double seconds) {
    TraceShape sh;
    sh.rate = rate;
    sh.seconds = seconds;
    sh.min_tokens = 4;
    sh.max_tokens = 32;
    sh.length_skew = 1.5;
    sh.variants = 8;
    sh.min_count = samples_for(99);  // every phase reports a p99
    return sh;
  };
  const auto build_inputs = [&](const std::vector<Arrival>& trace) {
    for (const Arrival& a : trace) {
      const InputKey key{a.tokens, a.variant};
      if (!inputs.count(key))
        inputs.emplace(key, api::make_input(ms.hidden, a.tokens,
                                            input_stream(opt.seed, "serve", key)));
    }
  };

  struct Phase {
    double rate = 0.0;
    bool ladder = false;  ///< a rung of the sustained-rate ladder
    bool traced = false;
    std::vector<Arrival> trace;
    std::vector<Record> rec;
    LagRecorder lag;
    api::ServerStats stats;
    Clock::time_point start{};
    double cpu_s = 0.0;
  };
  std::vector<Phase> phases;
  const auto add_phase = [&](double rate, double seconds, bool ladder,
                             bool traced, const std::string& label) {
    Phase p;
    p.rate = rate;
    p.ladder = ladder;
    p.traced = traced;
    p.trace = open_loop_trace(opt.seed, label, shape_for(rate, seconds));
    phases.push_back(std::move(p));
  };
  if (opt.trace) {
    // The rate ladder, then the same nominal schedule untraced and traced.
    for (std::size_t k = 0; k < opt.ladder.size(); ++k)
      add_phase(opt.ladder[k], opt.seconds / double(opt.ladder.size()), true,
                false, "serve_short/rung" + std::to_string(k));
    add_phase(opt.nominal_rps, opt.seconds / 2, false, false,
              "serve_short/nominal-ab");
    add_phase(opt.nominal_rps, opt.seconds / 2, false, true,
              "serve_short/nominal-ab");
  } else {
    add_phase(opt.nominal_rps, opt.seconds, false, false, "serve_short/nominal");
  }
  for (const Phase& p : phases) build_inputs(p.trace);

  // ---- measured phases
  std::uint64_t id_base = 0;
  for (Phase& p : phases) {
    tracer.set_enabled(p.traced);
    d.server->reset_stats();
    const double cpu0 = process_cpu_s();
    p.rec = drive_open_loop(
        p.trace,
        [&](std::size_t i, api::Ticket& t, std::string& err) {
          const Arrival& a = p.trace[i];
          return d.server->submit_encode(inputs.at({a.tokens, a.variant}), t,
                                         err);
        },
        p.lag, p.start);
    p.cpu_s = process_cpu_s() - cpu0;
    p.stats = d.server->stats();
    trace_requests(tracer, p.rec, p.start, id_base);
    id_base += p.rec.size();
  }
  tracer.set_enabled(opt.trace);
  const double rss = peak_rss_mb();

  // ---- verification (clock stopped)
  const api::Model ref = api::Model::build(ms);
  std::vector<InputKey> keys;
  for (const auto& [key, _] : inputs) keys.push_back(key);
  std::vector<std::uint64_t> ref_hash(keys.size());
  parallel_indices(keys.size(), [&](std::size_t i) {
    ref_hash[i] = api::hash_bits(ref.forward(inputs.at(keys[i])));
  });
  std::map<InputKey, std::uint64_t> expect;
  for (std::size_t i = 0; i < keys.size(); ++i) expect[keys[i]] = ref_hash[i];

  // ---- outcomes
  const auto latencies = [](const Phase& p) {
    std::vector<double> v;
    for (const Record& r : p.rec)
      if (r.outcome == api::Outcome::kOk) v.push_back(r.ready_ms - r.due_ms);
    return v;
  };
  double sustained = 0.0;
  for (Phase& p : phases) {
    FailureCount fc;
    count_outcomes(p.rec, fc);
    for (std::size_t i = 0; i < p.rec.size(); ++i)
      if (p.rec[i].outcome == api::Outcome::kOk &&
          p.rec[i].hash != expect.at({p.trace[i].tokens, p.trace[i].variant}))
        ++fc.mismatched;
    if (p.ladder) {
      // A rung is sustained when nothing failed or was refused, its p99
      // meets the limit, and its backlog drained within the limit.
      const std::vector<double> lat = latencies(p);
      const auto p99 = percentile(lat, 99.0);
      double drain_ms = 0.0;
      for (const Record& r : p.rec)
        drain_ms = std::max(drain_ms, r.ready_ms - p.rec.back().due_ms);
      const bool meets = fc.bad() == 0 && p99.has_value() &&
                         *p99 <= opt.p99_limit_ms &&
                         drain_ms <= opt.p99_limit_ms;
      std::printf("# rung %g req/s: sent %zu shed %zu p99 %.3f ms (n=%zu) "
                  "drain %.3f ms lag_max %.3f ms -> %s\n",
                  p.rate, fc.sent, fc.shed, p99.value_or(-1.0), lat.size(),
                  drain_ms, p.lag.max_ms(),
                  meets ? "meets limit" : "misses limit");
      if (meets) sustained = std::max(sustained, p.rate);
      // Refusals above the nominal rate are the overload the ladder
      // probes for; anywhere else a refusal is a failure.
      if (p.rate > opt.nominal_rps) fc.shed = 0;
    }
    out.failures += fc;
  }

  // The end-to-end metrics and client latencies come from the untraced
  // nominal phase: the only phase of an untraced run, the one before the
  // traced half of a traced run.
  const Phase& nominal = phases[phases.size() - (opt.trace ? 2 : 1)];
  {
    const std::vector<double> lat = latencies(nominal);
    add_cpu_metric(out.e2e, nominal.cpu_s, lat.size());
    add_latency_metrics(
        out.layer, lat,
        per_output_token(nominal.rec,
                         [&](std::size_t i) { return nominal.trace[i].tokens; }),
        kServeTailQ);
    FailureCount fc;
    count_outcomes(nominal.rec, fc);
    out.e2e.add("failed_frac", fc.failed_frac(), "ratio", fc.sent);
  }

  const Phase& last = phases.back();
  if (opt.trace) {
    FailureCount fc;
    count_outcomes(last.rec, fc);
    add_serving_metrics(out.layer, last.rec, last.stats, &last.lag, fc, 99);
    add_itl_metrics(out.layer, {}, 99);
    out.layer.add("serving.sustained_rps", sustained, "req/s",
                  opt.ladder.size(), "highest ladder rate meeting the p99 limit");
    const auto p50 = [&](const Phase& p) {
      return required_percentile(latencies(p), 50, "latency");
    };
    add_overhead(out.layer, p50(nominal), p50(last));
    out.layer.add("transformer.kv_cache.bytes", 0.0, "bytes", 0,
                  "encode keeps no KV cache");
    // Replay batch: the tokens of the batch an average request of the
    // traced phase rode in (Response::batch_tokens, request-weighted),
    // filled with lengths drawn from the workload's own distribution and
    // seed; the last one is cut to hit the token count.
    double rode = 0.0, delivered = 0.0;
    for (const Record& r : last.rec) {
      if (r.outcome != api::Outcome::kOk) continue;
      rode += double(r.batch_tokens);
      delivered += 1.0;
    }
    const auto target = std::max<std::uint32_t>(
        1, std::uint32_t(rode / std::max(1.0, delivered) + 0.5));
    SplitMix rng(opt.seed, "serve_short/replay");
    std::vector<std::uint32_t> lengths;
    for (std::uint32_t total = 0; total < target;) {
      const std::uint32_t len =
          std::min(zipf_lengths(1, 4, 32, 1.5, rng)[0], target - total);
      lengths.push_back(len);
      total += len;
    }
    const ReplayBatch batch =
        make_replay_batch(d.model, lengths, rng.next(), false);
    if (!add_lower_layers(d.model, batch, 0, 7, rng.next(), tracer, out))
      ++out.failures.mismatched;
  }
  out.e2e.add("peak_rss_mb", rss, "MB");
  return out;
}

// ================================================= generation workloads

namespace {

/// Tail percentile of the generation workloads: p80 needs 50 requests,
/// which a closed loop of multi-token requests completes within a run.
constexpr double kGenTailQ = 80;

/// Time from due to the first on_token callback (TTFT) per request.
std::vector<double> ttft(const ClosedLoopRun& run) {
  std::vector<double> v;
  for (std::size_t i = 0; i < run.rec.size(); ++i)
    if (run.rec[i].outcome == api::Outcome::kOk && run.tokens[i].n > 0)
      v.push_back(ms_between(run.start, run.tokens[i].at[0]) -
                  run.rec[i].due_ms);
  return v;
}

/// Gaps between consecutive on_token callbacks within each request (ITL).
std::vector<double> itl(const ClosedLoopRun& run) {
  std::vector<double> v;
  for (std::size_t i = 0; i < run.rec.size(); ++i) {
    if (run.rec[i].outcome != api::Outcome::kOk) continue;
    const TokenLog& log = run.tokens[i];
    for (std::size_t t = 1; t < log.n; ++t)
      v.push_back(ms_between(log.at[t - 1], log.at[t]));
  }
  return v;
}

/// Outcomes of a closed-loop run, a delivered output that differs from
/// `expect[prompt]` counting as a mismatch.
FailureCount check_run(const ClosedLoopRun& run,
                       const std::vector<std::uint64_t>& expect) {
  FailureCount fc;
  count_outcomes(run.rec, fc);
  for (std::size_t i = 0; i < run.rec.size(); ++i)
    if (run.rec[i].outcome == api::Outcome::kOk &&
        run.rec[i].hash != expect[run.prompt[i]])
      ++fc.mismatched;
  return fc;
}

/// Runs the closed loop once (untraced) or twice (untraced, then traced
/// over the same order), tracing the requests of the traced half.
template <typename Submit, typename LogSize>
std::vector<ClosedLoopRun> run_halves(const Options& opt, Tracer& tracer,
                                      api::Server& server,
                                      std::vector<api::ServerStats>& stats,
                                      std::size_t clients, std::size_t pool,
                                      const std::string& label,
                                      LogSize log_size, Submit submit) {
  const int halves = opt.trace ? 2 : 1;
  std::vector<ClosedLoopRun> runs;
  std::uint64_t id_base = 0;
  for (int k = 0; k < halves; ++k) {
    tracer.set_enabled(opt.trace && k == 1);
    server.reset_stats();
    runs.push_back(drive_closed_loop(clients, pool, opt.seconds / halves,
                                     samples_for(kGenTailQ), opt.seed, label,
                                     log_size, submit));
    stats.push_back(server.stats());
    trace_requests(tracer, runs.back().rec, runs.back().start, id_base,
                   &runs.back().tokens);
    id_base += runs.back().rec.size();
  }
  tracer.set_enabled(opt.trace);
  return runs;
}

/// The end-to-end metrics of a generation workload's untraced run (CPU
/// cost per request) and its client latencies (TTFT, and time per output
/// token, with `new_tokens(prompt)` tokens per request).
template <typename NewTokens>
void add_generation_e2e(RunOutput& out, const ClosedLoopRun& run,
                        NewTokens new_tokens) {
  const auto tokens = [&](std::size_t i) { return new_tokens(run.prompt[i]); };
  const std::vector<double> first = ttft(run);
  add_latency_metrics(out.layer, first, per_output_token(run.rec, tokens),
                      kGenTailQ);
  add_cpu_metric(out.e2e, run.cpu_s, first.size());
  FailureCount fc;
  count_outcomes(run.rec, fc);
  out.e2e.add("failed_frac", fc.failed_frac(), "ratio", fc.sent);
}

/// The serving and client metrics of a generation workload's traced half.
void add_generation_layers(MetricSet& out,
                           const std::vector<ClosedLoopRun>& runs,
                           const api::ServerStats& traced_stats,
                           double itl_tail_q) {
  FailureCount fc;
  count_outcomes(runs[1].rec, fc);
  add_serving_metrics(out, runs[1].rec, traced_stats, nullptr, fc, kGenTailQ);
  add_itl_metrics(out, itl(runs[1]), itl_tail_q);
  add_no_ladder(out);
  add_overhead(out, required_percentile(ttft(runs[0]), 50, "untraced TTFT"),
               required_percentile(ttft(runs[1]), 50, "traced TTFT"));
}

}  // namespace

// =========================================================== prefill_long

RunOutput run_prefill_long(const Options& opt, Tracer& tracer) {
  RunOutput out;
  api::ModelSpec ms;
  ms.causal = true;
  api::ServeSpec ss;
  ss.max_batch_tokens = 512;  // a whole prompt is one prefill chunk
  ss.kv_capacity = 512;
  ss.max_new_tokens = 1;

  Deployment d = deploy(
      ms, ss,
      [](const api::Model& m, api::Server& s) {
        warm_burst(s, {{api::make_input(m.spec().hidden, 192, 2000), 1}});
      },
      out);

  // 20 prompts on an even grid over [192, 384] tokens; the seed picks
  // their contents and the order in which the closed loop cycles through
  // them, so every seed offers the same mix of work.
  constexpr std::size_t kPrompts = 20;
  SplitMix rng(opt.seed, "prefill_long");
  std::vector<std::uint32_t> lengths;
  for (std::size_t i = 0; i < kPrompts; ++i)
    lengths.push_back(std::uint32_t(192 + (i * 192 + (kPrompts - 1) / 2) /
                                              (kPrompts - 1)));
  std::vector<api::Tensor> prompts;
  for (std::size_t i = 0; i < kPrompts; ++i)
    prompts.push_back(api::make_input(ms.hidden, lengths[i], rng.next()));

  // One client: no queue forms, and every batch is one prompt.
  std::vector<api::ServerStats> stats;
  const std::vector<ClosedLoopRun> runs = run_halves(
      opt, tracer, *d.server, stats, 1, kPrompts, "prefill_long",
      [](std::size_t) { return 2; },
      [&](std::size_t which, TokenLog& log, api::Ticket& t, std::string& err) {
        return d.server->submit_generate(prompts[which], 1,
                                         [&log] { log.hit(); }, t, err);
      });
  const double rss = peak_rss_mb();

  // ---- verification (clock stopped)
  const api::Model ref = api::Model::build(ms);
  std::vector<std::uint64_t> expect(kPrompts);
  parallel_indices(kPrompts, [&](std::size_t i) {
    expect[i] = api::hash_bits(ref.generate(prompts[i], 1, ss.kv_capacity));
  });
  for (const ClosedLoopRun& run : runs) out.failures += check_run(run, expect);
  add_generation_e2e(out, runs[0], [](std::size_t) { return 1; });

  if (opt.trace) {
    // The ITL is the one gap between the prompt's token and the decode
    // step's, one sample per request.
    add_generation_layers(out.layer, runs, stats[1], kGenTailQ);
    out.layer.add("transformer.kv_cache.bytes",
                  double(d.model.kv_bytes(ss.kv_capacity)), "bytes", 1,
                  "one session");
    // Replay batch: one prompt of the pool's median length.
    std::vector<std::uint32_t> sorted = lengths;
    std::sort(sorted.begin(), sorted.end());
    const ReplayBatch batch = make_replay_batch(
        d.model, {sorted[kPrompts / 2]}, rng.next(), true);
    if (!add_lower_layers(d.model, batch, ss.kv_capacity, 3, rng.next(),
                          tracer, out))
      ++out.failures.mismatched;
  }
  out.e2e.add("peak_rss_mb", rss, "MB");
  return out;
}

// ========================================================== decode_stream

RunOutput run_decode_stream(const Options& opt, Tracer& tracer) {
  RunOutput out;
  constexpr std::size_t kWindow = 128;
  api::ModelSpec ms;
  ms.causal = true;
  ms.window = kWindow;
  ms.int8 = true;
  api::ServeSpec ss;
  ss.kv_capacity = kWindow;  // the ring is the window: it wraps
  ss.max_new_tokens = 128;
  // Prompts enter in 16-token chunks, so the live session's decode steps
  // interleave with a new session's prefill instead of waiting it out.
  ss.prefill_chunk_tokens = 16;

  Deployment d = deploy(
      ms, ss,
      [](const api::Model& m, api::Server& s) {
        // Four sessions, one per prompt chunk count, each decoding long
        // enough to meet the others' prefill chunks as in the run, without
        // timing many small decode batches as set-up.
        std::vector<std::pair<api::Tensor, std::size_t>> reqs;
        for (std::uint32_t i = 0; i < 4; ++i)
          reqs.emplace_back(api::make_input(m.spec().hidden, 16 + 16 * i,
                                            3000 + i),
                            8);
        warm_burst(s, reqs);
      },
      out);

  // 24 session templates: prompt 16-64 tokens, 64-128 new tokens.
  constexpr std::size_t kTemplates = 24;
  SplitMix rng(opt.seed, "decode_stream");
  const auto prompt_len = uniform_lengths(kTemplates, 16, 64, rng);
  const auto new_len = uniform_lengths(kTemplates, 64, 128, rng);
  std::vector<api::Tensor> prompts;
  for (std::size_t i = 0; i < kTemplates; ++i)
    prompts.push_back(api::make_input(ms.hidden, prompt_len[i], rng.next()));

  // Two clients, one session each at all times: every new session's
  // prefill chunks meet the other session's urgent decode steps.
  constexpr std::size_t kClients = 2;
  std::vector<api::ServerStats> stats;
  const std::vector<ClosedLoopRun> runs = run_halves(
      opt, tracer, *d.server, stats, kClients, kTemplates, "decode_stream",
      [&](std::size_t t) { return std::size_t(new_len[t]) + 1; },
      [&](std::size_t t, TokenLog& log, api::Ticket& tk, std::string& err) {
        return d.server->submit_generate(prompts[t], new_len[t],
                                         [&log] { log.hit(); }, tk, err);
      });
  const double rss = peak_rss_mb();

  // ---- verification (clock stopped)
  const api::Model ref = api::Model::build(ms);
  std::vector<std::uint64_t> expect(kTemplates);
  parallel_indices(kTemplates, [&](std::size_t i) {
    expect[i] =
        api::hash_bits(ref.generate(prompts[i], new_len[i], ss.kv_capacity));
  });
  for (const ClosedLoopRun& run : runs) out.failures += check_run(run, expect);
  add_generation_e2e(out, runs[0],
                     [&](std::size_t t) { return new_len[t]; });

  if (opt.trace) {
    add_generation_layers(out.layer, runs, stats[1], 99);
    out.layer.add("transformer.kv_cache.bytes",
                  double(kClients) * double(d.model.kv_bytes(ss.kv_capacity)),
                  "bytes", kClients, "live sessions x ring");
    // Replay batch: the observed mean decode steps per batch, one token
    // each against a ring that has already wrapped.
    const api::ServerStats& st = stats[1];
    const std::size_t per_batch = std::max<std::size_t>(
        1, std::size_t(double(st.decode_steps) /
                           double(std::max<std::size_t>(1, st.batches)) +
                       0.5));
    const ReplayBatch batch =
        make_replay_batch(d.model, std::vector<std::uint32_t>(per_batch, 1),
                          rng.next(), true, kWindow + 32);
    if (!add_lower_layers(d.model, batch, ss.kv_capacity, 7, rng.next(),
                          tracer, out))
      ++out.failures.mismatched;
  }
  out.e2e.add("peak_rss_mb", rss, "MB");
  return out;
}

}  // namespace perfbench
