#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <type_traits>
#include <unistd.h>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

namespace perfbench {

namespace {

constexpr std::uint32_t kReplayTrack = 2;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool same_bits(const api::Tensor& a, const api::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         api::hash_bits(a) == api::hash_bits(b);
}

/// Times one public call into `acc` (ms) and, when tracing, records it.
template <typename Fn>
auto timed(Tracer& tracer, double& acc, const char* name, const char* cat,
           Fn&& fn) {
  const auto t0 = Clock::now();
  const auto finish = [&] {
    const auto t1 = Clock::now();
    acc += ms_between(t0, t1);
    if (tracer.enabled())
      tracer.add(SpanRecord{name, cat, t0, t1, kReplayTrack, 0, {}, false});
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    finish();
  } else {
    auto r = fn();
    finish();
    return r;
  }
}

/// One repetition's time per replay level (ms).
struct Times {
  double encoder = 0, layer = 0, attention = 0, lin_attn = 0, lin_ffn = 0;
  double layer_norm = 0, gelu = 0, add = 0;
  double scores = 0, softmax = 0, context = 0, kv = 0;

  double leaves() const {
    return lin_attn + lin_ffn + layer_norm + gelu + add + scores + softmax +
           context + kv;
  }
};

api::Tensor slice_head(const api::Tensor& x, std::size_t h, std::size_t dh,
                       std::size_t t0, std::size_t t1) {
  api::Tensor out(dh, t1 - t0);
  for (std::size_t d = 0; d < dh; ++d)
    for (std::size_t t = t0; t < t1; ++t) out(d, t - t0) = x(h * dh + d, t);
  return out;
}

/// The scores -> softmax -> context core of one layer's attention over
/// packed sequences, from the public token ops (bidirectional mask).
api::Tensor attention_core(const api::Model& model, const api::Tensor& q,
                           const api::Tensor& k, const api::Tensor& v,
                           std::span<const std::size_t> ends, Times& t,
                           Tracer& tracer) {
  const std::size_t hidden = model.spec().hidden;
  const std::size_t dh = hidden / model.spec().heads;
  const float scale = 1.0f / std::sqrt(float(dh));
  api::Tensor ctx(hidden, q.cols());
  for (std::size_t h = 0; h < model.spec().heads; ++h) {
    std::size_t s0 = 0;
    for (const std::size_t s1 : ends) {
      const api::Tensor qh = slice_head(q, h, dh, s0, s1);
      const api::Tensor kh = slice_head(k, h, dh, s0, s1);
      const api::Tensor vh = slice_head(v, h, dh, s0, s1);
      api::FloatTensor sc = timed(tracer, t.scores, "ops.attention_scores",
                                  "op", [&] {
                                    return api::attention_scores(qh, kh, scale);
                                  });
      timed(tracer, t.softmax, "ops.softmax", "op",
            [&] { api::softmax(sc); });
      const api::Tensor c = timed(tracer, t.context, "ops.attention_context",
                                  "op", [&] {
                                    return api::attention_context(sc, vh);
                                  });
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t tok = s0; tok < s1; ++tok)
          ctx(h * dh + d, tok) = c(d, tok - s0);
      s0 = s1;
    }
  }
  return ctx;
}

/// The same core against KV rings (the decode / prefill path): append
/// each token's K/V, gather the window, attend one query at a time.
api::Tensor attention_core_cached(const api::Model& model,
                                  const api::Tensor& q, const api::Tensor& k,
                                  const api::Tensor& v,
                                  std::span<const std::size_t> ends,
                                  std::vector<api::Cache>& caches,
                                  std::size_t l, std::size_t capacity,
                                  Times& t, Tracer& tracer) {
  const std::size_t hidden = model.spec().hidden;
  const std::size_t dh = hidden / model.spec().heads;
  const float scale = 1.0f / std::sqrt(float(dh));
  const std::size_t win =
      model.spec().window != 0 ? model.spec().window : capacity;
  api::Tensor ctx(hidden, q.cols());
  api::Tensor kh, vh, qh(dh, 1), c;
  api::FloatTensor sc;
  std::size_t s0 = 0;
  for (std::size_t s = 0; s < ends.size(); ++s) {
    for (std::size_t tok = s0; tok < ends[s]; ++tok) {
      const std::size_t p = timed(tracer, t.kv, "kv_cache.append", "op", [&] {
        return api::cache_append(caches[s], l, k, v, tok);
      });
      const std::size_t lo = p + 1 > win ? p + 1 - win : 0;
      const std::size_t w = p + 1 - lo;
      for (std::size_t h = 0; h < model.spec().heads; ++h) {
        timed(tracer, t.kv, "kv_cache.gather", "op", [&] {
          api::cache_gather(caches[s], l, h * dh, dh, lo, w, kh, vh);
        });
        for (std::size_t d = 0; d < dh; ++d) qh(d, 0) = q(h * dh + d, tok);
        timed(tracer, t.scores, "ops.attention_scores", "op",
              [&] { api::attention_scores_into(qh, kh, scale, sc); });
        timed(tracer, t.softmax, "ops.softmax", "op",
              [&] { api::softmax(sc); });
        timed(tracer, t.context, "ops.attention_context", "op",
              [&] { api::attention_context_into(sc, vh, c); });
        for (std::size_t d = 0; d < dh; ++d) ctx(h * dh + d, tok) = c(d, 0);
      }
    }
    s0 = ends[s];
  }
  return ctx;
}

std::vector<api::Cache*> pointers(std::vector<api::Cache>& caches) {
  std::vector<api::Cache*> out;
  for (api::Cache& c : caches) out.push_back(&c);
  return out;
}

/// One outside-in replay repetition; false if the composed leaf calls
/// do not reproduce the library's layer and attention outputs.
bool replay_once(const api::Model& model, const ReplayBatch& batch,
                 const std::vector<api::Cache>& base, std::size_t capacity,
                 Times& t, Tracer& tracer) {
  std::span<const std::size_t> ends(batch.ends);
  std::vector<api::Cache> ce = base, cl = base, ca = base, cd = base;
  const auto pe = pointers(ce), pl = pointers(cl), pa = pointers(ca);
  bool ok = true;

  const api::Tensor y =
      timed(tracer, t.encoder, "transformer.encoder", "layer", [&] {
        return batch.cached ? model.encoder_forward_cached(batch.x, ends, pe)
                            : model.encoder_forward(batch.x, ends);
      });
  api::Tensor x = batch.x;
  for (std::size_t l = 0; l < model.spec().layers; ++l) {
    const api::Tensor out =
        timed(tracer, t.layer, "transformer.encoder_layer", "layer", [&] {
          return batch.cached ? model.layer_forward_cached(l, x, ends, pl)
                              : model.layer_forward(l, x, ends);
        });
    ScopedSpan parts(tracer, "transformer.encoder_layer.parts", "replay",
                     kReplayTrack, l);
    const api::Tensor attn =
        timed(tracer, t.attention, "transformer.attention", "layer", [&] {
          return batch.cached ? model.attention_forward_cached(l, x, ends, pa)
                              : model.attention_forward(l, x, ends);
        });
    {
      ScopedSpan attn_parts(tracer, "transformer.attention.parts", "replay",
                            kReplayTrack, l);
      const auto lin = [&](api::Proj p, const api::Tensor& in) {
        return timed(tracer, t.lin_attn, "transformer.linear", "layer",
                     [&] { return model.linear_forward(l, p, in); });
      };
      const api::Tensor q = lin(api::Proj::kQ, x);
      const api::Tensor k = lin(api::Proj::kK, x);
      const api::Tensor v = lin(api::Proj::kV, x);
      const api::Tensor ctx =
          batch.cached ? attention_core_cached(model, q, k, v, ends, cd, l,
                                               capacity, t, tracer)
                       : attention_core(model, q, k, v, ends, t, tracer);
      ok = ok && same_bits(lin(api::Proj::kO, ctx), attn);
    }
    const auto op = [&](double& acc, const char* name, auto fn) {
      return timed(tracer, acc, name, "op", fn);
    };
    const auto ffn = [&](api::Proj p, const api::Tensor& in) {
      return timed(tracer, t.lin_ffn, "transformer.linear", "layer",
                   [&] { return model.linear_forward(l, p, in); });
    };
    const api::Tensor s1 = op(t.add, "ops.add", [&] { return api::add(x, attn); });
    const api::Tensor h =
        op(t.layer_norm, "ops.layer_norm", [&] { return api::layer_norm(s1); });
    const api::Tensor f1 = ffn(api::Proj::kFfnIn, h);
    const api::Tensor a = op(t.gelu, "ops.gelu", [&] { return api::gelu(f1); });
    const api::Tensor f2 = ffn(api::Proj::kFfnOut, a);
    const api::Tensor s2 = op(t.add, "ops.add", [&] { return api::add(h, f2); });
    const api::Tensor o2 =
        op(t.layer_norm, "ops.layer_norm", [&] { return api::layer_norm(s2); });
    ok = ok && same_bits(o2, out);
    x = out;
  }
  return ok && same_bits(x, y);
}

}  // namespace

ReplayBatch make_replay_batch(const api::Model& model,
                              const std::vector<std::uint32_t>& lengths,
                              std::uint64_t stream, bool cached,
                              std::size_t history) {
  ReplayBatch b;
  b.cached = cached;
  std::size_t total = 0;
  for (std::uint32_t len : lengths) b.ends.push_back(total += len);
  b.x = api::Tensor(model.spec().hidden, total);
  for (std::size_t s = 0, col = 0; s < lengths.size(); ++s) {
    const api::Tensor in =
        api::make_input(model.spec().hidden, lengths[s], stream + s);
    for (std::size_t r = 0; r < in.rows(); ++r)
      for (std::size_t c = 0; c < in.cols(); ++c) b.x(r, col + c) = in(r, c);
    col += lengths[s];
  }
  b.history = history;
  return b;
}

bool replay_transformer(const api::Model& model, const ReplayBatch& batch,
                        std::size_t kv_capacity, int reps, Tracer& tracer,
                        MetricSet& out) {
  // KV rings in the state the batch expects (a copy per call level).
  std::vector<api::Cache> base;
  if (batch.cached) {
    for (std::size_t s = 0; s < batch.ends.size(); ++s) {
      base.push_back(model.make_cache(kv_capacity));
      if (batch.history == 0) continue;
      const api::Tensor hx = api::make_input(model.spec().hidden,
                                             batch.history, 0x5eed0000u + s);
      const std::size_t end = batch.history;
      api::Cache* c = &base.back();
      model.encoder_forward_cached(hx, std::span<const std::size_t>(&end, 1),
                                   std::span<api::Cache* const>(&c, 1));
    }
  }
  bool ok = true;
  std::vector<Times> runs;
  Tracer silent(false);
  for (int r = 0; r < reps; ++r) {
    Times t;
    // Spans of the first repetition only keep the trace file bounded.
    ok = replay_once(model, batch, base, kv_capacity, t,
                     r == 0 ? tracer : silent) &&
         ok;
    runs.push_back(t);
  }
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const Times& t : runs) v.push_back(f(t));
    return median(v);
  };
  const std::size_t n = runs.size();
  out.add("transformer.encoder.ms", med([](const Times& t) { return t.encoder; }),
          "ms", n);
  out.add("transformer.encoder_layer.self_ms",
          med([](const Times& t) { return t.layer - t.attention - t.lin_ffn; }),
          "ms", n, "layer call - attention call - FFN linears");
  out.add("transformer.attention.self_ms",
          med([](const Times& t) { return t.attention - t.lin_attn; }), "ms",
          n, "attention call - its four projections");
  out.add("transformer.linear.ms",
          med([](const Times& t) { return t.lin_attn + t.lin_ffn; }), "ms", n);
  out.add("transformer.ops.layer_norm_ms",
          med([](const Times& t) { return t.layer_norm; }), "ms", n);
  out.add("transformer.ops.gelu_ms", med([](const Times& t) { return t.gelu; }),
          "ms", n);
  out.add("transformer.ops.add_ms", med([](const Times& t) { return t.add; }),
          "ms", n);
  out.add("transformer.ops.attention_scores_ms",
          med([](const Times& t) { return t.scores; }), "ms", n);
  out.add("transformer.ops.softmax_ms",
          med([](const Times& t) { return t.softmax; }), "ms", n);
  out.add("transformer.ops.attention_context_ms",
          med([](const Times& t) { return t.context; }), "ms", n);
  out.add("transformer.kv_cache.ms", med([](const Times& t) { return t.kv; }),
          "ms", n, "KV append + gather");
  out.add("transformer.unaccounted_frac",
          med([](const Times& t) {
            return (t.encoder - t.leaves()) / t.encoder;
          }),
          "ratio", n, "encoder time not covered by leaf calls");
  out.add("transformer.attention.self_frac",
          med([](const Times& t) {
            return (t.attention - t.lin_attn) / t.encoder;
          }),
          "ratio", n);
  out.add("transformer.encoder_layer.self_frac",
          med([](const Times& t) {
            return (t.layer - t.attention - t.lin_ffn) / t.encoder;
          }),
          "ratio", n);
  out.add("transformer.linear.frac",
          med([](const Times& t) {
            return (t.lin_attn + t.lin_ffn) / t.encoder;
          }),
          "ratio", n);
  out.add("transformer.replay_tokens", double(batch.x.cols()), "tokens",
          batch.ends.size(), "replay batch: tokens (n = sequences)");
  return ok;
}

// ---------------------------------------------------------------- kernels

void measure_kernels(const api::Model& model, std::size_t b_cols,
                     std::uint64_t stream, double fma_gflops, MetricSet& out) {
  std::vector<std::unique_ptr<api::LinearOperand>> ops;
  std::vector<api::Tensor> bs;
  for (api::Proj p : api::kAllProj) {
    ops.push_back(std::make_unique<api::LinearOperand>(model, 0, p));
    bs.push_back(api::make_input(ops.back()->cols(), b_cols, stream + bs.size()));
  }
  // Median over repetitions of the summed time of all six shapes.
  const auto time_all = [&](auto fn) {
    for (std::size_t i = 0; i < ops.size(); ++i) fn(*ops[i], bs[i]);  // warm
    std::vector<double> reps;
    const auto begin = Clock::now();
    while (reps.size() < 5 ||
           (ms_between(begin, Clock::now()) < 300.0 && reps.size() < 60)) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < ops.size(); ++i) fn(*ops[i], bs[i]);
      reps.push_back(ms_between(t0, Clock::now()));
    }
    return median(reps);
  };
  const double spmm = time_all([](const api::LinearOperand& o,
                                  const api::Tensor& b) { return o.spmm_vnm(b); });
  const double dense = time_all([](const api::LinearOperand& o,
                                   const api::Tensor& b) { return o.dense_gemm(b); });
  const double i8 = time_all([](const api::LinearOperand& o,
                                const api::Tensor& b) { return o.spmm_vnm_i8(b); });
  const double dispatch = time_all([](const api::LinearOperand& o,
                                      const api::Tensor& b) {
    return o.ops_matmul(b);
  });
  const double linear = time_all([](const api::LinearOperand& o,
                                    const api::Tensor& b) {
    return o.linear_forward(b);
  });

  double sparse_flops = 0, dense_flops = 0, sparse_bytes = 0, dense_bytes = 0,
         i8_bytes = 0;
  for (const auto& o : ops) {
    sparse_flops += o->sparse_flops(b_cols);
    dense_flops += o->dense_flops(b_cols);
    sparse_bytes += o->sparse_bytes(b_cols);
    dense_bytes += o->dense_bytes(b_cols);
    i8_bytes += o->int8_bytes(b_cols);
  }
  const auto kernel = [&](const std::string& name, double ms, double flops,
                          double bytes) {
    const double gflops = flops / (ms * 1e6);
    out.add(name + ".ms", ms, "ms", 0, "six linear shapes of one layer");
    out.add(name + ".gflops", gflops, "GFLOP/s");
    out.add(name + ".ops", flops, "count", 0, "useful multiply-adds x2");
    out.add(name + ".bytes", bytes, "bytes", 0, "computed from operand sizes");
    out.add(name + ".ops_per_byte", flops / bytes, "ratio");
    out.add(name + ".peak_frac", fma_gflops > 0 ? gflops / fma_gflops : 0.0,
            "ratio", 0, "of the measured all-thread FMA peak");
  };
  kernel("spatha.spmm_vnm", spmm, sparse_flops, sparse_bytes);
  kernel("spatha.dense_gemm", dense, dense_flops, dense_bytes);
  kernel("quant.spmm_vnm_i8", i8, sparse_flops, i8_bytes);
  out.add("spatha.sparse_vs_dense.speedup", dense / spmm, "ratio", 0,
          "same-run dense / 64:2:8 fp16 time");
  out.add("quant.i8_vs_fp16.speedup", spmm / i8, "ratio", 0,
          "same-run fp16 / int8 time");
  out.add("ops.matmul.ms", dispatch, "ms", 0, "ops::matmul, 64:2:8 fp16");
  out.add("ops.dispatch_overhead_ms",
          linear - (model.spec().int8 ? i8 : spmm), "ms", 0,
          "Linear::forward minus the kernel it runs");
}

// ---------------------------------------------------------------- machine

namespace {

#if defined(__AVX512F__)
using Vec = __m512;
constexpr int kLanes = 16;
inline Vec vset(float x) { return _mm512_set1_ps(x); }
inline Vec vfma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
inline float vfirst(Vec a) { return _mm512_cvtss_f32(a); }
#elif defined(__FMA__)
using Vec = __m256;
constexpr int kLanes = 8;
inline Vec vset(float x) { return _mm256_set1_ps(x); }
inline Vec vfma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
inline float vfirst(Vec a) { return _mm256_cvtss_f32(a); }
#else
using Vec = float;
constexpr int kLanes = 1;
inline Vec vset(float x) { return x; }
inline Vec vfma(Vec a, Vec b, Vec c) { return a * b + c; }
inline float vfirst(Vec a) { return a; }
#endif

constexpr int kChains = 12;  // independent FMA chains hide the latency

float fma_chains(std::size_t iters, float seed) {
  Vec acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = vset(seed + 0.01f * float(j));
  const Vec a = vset(0.999f), b = vset(0.001f);
  for (std::size_t it = 0; it < iters; ++it)
    for (int j = 0; j < kChains; ++j) acc[j] = vfma(acc[j], a, b);
  float s = 0.0f;
  for (int j = 0; j < kChains; ++j) s += vfirst(acc[j]);
  return s;
}

/// Runs fn(t) on `threads` threads released together; returns seconds.
template <typename Fn>
double run_threads(std::size_t threads, Fn fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t);
    });
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return ms_between(t0, Clock::now()) / 1e3;
}

}  // namespace

MachinePeak measure_machine(std::size_t threads) {
  MachinePeak peak;
  threads = std::max<std::size_t>(1, threads);
  std::atomic<float> sink{0.0f};

  // FMA: calibrate to ~20 ms per thread, then best of five all-thread runs.
  std::size_t iters = 1 << 14;
  while (true) {
    const auto t0 = Clock::now();
    sink = sink + fma_chains(iters, 0.5f);
    if (ms_between(t0, Clock::now()) >= 20.0 || iters >= (1u << 30)) break;
    iters *= 2;
  }
  for (int r = 0; r < 5; ++r) {
    const double s = run_threads(threads, [&](std::size_t t) {
      sink = sink + fma_chains(iters, 0.5f + float(t));
    });
    const double flops =
        2.0 * kLanes * kChains * double(iters) * double(threads);
    peak.fma_gflops = std::max(peak.fma_gflops, flops / s / 1e9);
  }

  // Streaming triad a = b + s*c, split across the threads. Valid only
  // when the arrays dwarf the last-level cache (4x); the arrays are
  // capped to keep the probe's memory small, so on a large-LLC machine
  // the figure is cache bandwidth and is labelled invalid.
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  peak.llc_bytes = llc > 0 ? std::size_t(llc) : 0;
  const std::size_t n = (std::size_t(32) << 20) / sizeof(float);
  peak.stream_bytes = 3 * n * sizeof(float);
  peak.stream_valid = peak.llc_bytes > 0 && peak.stream_bytes >= 4 * peak.llc_bytes;
  std::unique_ptr<float[]> a(new float[n]), b(new float[n]), c(new float[n]);
  const std::size_t chunk = (n + threads - 1) / threads;
  run_threads(threads, [&](std::size_t t) {
    for (std::size_t i = t * chunk; i < std::min(n, (t + 1) * chunk); ++i) {
      a[i] = 0.0f;
      b[i] = 1.0f;
      c[i] = 2.0f;
    }
  });
  for (int r = 0; r < 5; ++r) {
    const double s = run_threads(threads, [&](std::size_t t) {
      const std::size_t lo = t * chunk, hi = std::min(n, (t + 1) * chunk);
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0f * c[i];
    });
    peak.stream_gbps =
        std::max(peak.stream_gbps, double(peak.stream_bytes) / s / 1e9);
  }
  sink = sink + a[n / 2];
  return peak;
}

}  // namespace perfbench
