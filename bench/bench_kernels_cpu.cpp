// Google-benchmark harness over the real CPU kernels: dense GEMM,
// Spatha V:N:M SpMM, 2:4 SpMM, CSR SpMM, CVSE SpMM.
//
// These are wall-clock measurements of this library's own kernels (not
// the GPU model): they demonstrate that the V:N:M format delivers real
// speedups proportional to sparsity on the CPU implementation too — the
// who-wins ordering of Fig. 13 holds for the executable code in this
// repository, not just for the analytical model.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "baselines/gemm.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "pruning/policies.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/spmm.hpp"
#include "transformer/attention_core.hpp"
#include "transformer/linear.hpp"
#include "transformer/ops.hpp"

namespace {

using namespace venom;

constexpr std::size_t kR = 256;
constexpr std::size_t kK = 512;
constexpr std::size_t kC = 128;

HalfMatrix weight() {
  Rng rng(1);
  return random_half_matrix(kR, kK, rng, 0.05f);
}

HalfMatrix activations() {
  Rng rng(2);
  return random_half_matrix(kK, kC, rng, 0.05f);
}

void BM_DenseGemm(benchmark::State& state) {
  const HalfMatrix a = weight();
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = gemm_flops(kR, kK, kC);
}
BENCHMARK(BM_DenseGemm)->Unit(benchmark::kMillisecond);

void BM_SpathaVnm(benchmark::State& state) {
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(weight(), cfg);
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " (" +
                 std::to_string(int(cfg.sparsity() * 100)) + "% sparse)");
}
BENCHMARK(BM_SpathaVnm)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SpathaVnmScalar(benchmark::State& state) {
  // The seed's element-at-a-time path, kept as the perf baseline for the
  // packed float-panel pipeline.
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(weight(), cfg);
  const HalfMatrix b = activations();
  // Dispatch would pick vnm-fast; pin the backend this bench measures.
  const ops::ScopedBackend forced("vnm-scalar");
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " seed scalar path");
}
BENCHMARK(BM_SpathaVnmScalar)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SpathaVnmInt8(benchmark::State& state) {
  // Pre-quantized weight through the dispatch layer: measures the packed
  // int8 panel pipeline (int32 accumulate, scale epilogue), not the
  // one-time quantization cost.
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const auto a = std::make_shared<const quant::QuantizedVnmMatrix>(
      quant::QuantizedVnmMatrix::quantize(
          VnmMatrix::from_dense_magnitude(weight(), cfg)));
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " int8");
}
BENCHMARK(BM_SpathaVnmInt8)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SpathaVnmFp8(benchmark::State& state) {
  const std::size_t m = std::size_t(state.range(0));
  const VnmConfig cfg{64, 2, m};
  const auto a = std::make_shared<const quant::Fp8VnmMatrix>(
      quant::Fp8VnmMatrix::quantize(
          VnmMatrix::from_dense_magnitude(weight(), cfg), Fp8Format::kE4M3));
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("64:2:" + std::to_string(m) + " fp8-e4m3");
}
BENCHMARK(BM_SpathaVnmFp8)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Spmm24(benchmark::State& state) {
  const NmMatrix a = NmMatrix::from_dense_magnitude(weight(), {2, 4});
  const HalfMatrix b = activations();
  // Dispatch would pick the register-blocked nm backend; pin the 2:4
  // baseline this bench measures.
  const ops::ScopedBackend forced("spmm-24");
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel("2:4 (cuSparseLt-style)");
}
BENCHMARK(BM_Spmm24)->Unit(benchmark::kMillisecond);

void BM_SpmmCsr(benchmark::State& state) {
  const double sparsity = double(state.range(0)) / 100.0;
  const CsrMatrix a =
      CsrMatrix::from_dense(pruning::prune_unstructured(weight(), sparsity));
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel(std::to_string(state.range(0)) + "% unstructured (Sputnik-style)");
}
BENCHMARK(BM_SpmmCsr)->Arg(50)->Arg(75)->Arg(90)->Arg(95)
    ->Unit(benchmark::kMillisecond);

void BM_SpmmCvse(benchmark::State& state) {
  const double sparsity = double(state.range(0)) / 100.0;
  const CvseMatrix a =
      CvseMatrix::from_dense_magnitude(weight(), 8, 1.0 - sparsity);
  const HalfMatrix b = activations();
  for (auto _ : state)
    benchmark::DoNotOptimize(ops::matmul(ops::MatmulArgs::make(a, b)));
  state.SetLabel(std::to_string(state.range(0)) + "% vw_8 (CLASP-style)");
}
BENCHMARK(BM_SpmmCvse)->Arg(50)->Arg(75)->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_VnmCompression(benchmark::State& state) {
  const HalfMatrix w = weight();
  const VnmConfig cfg{64, 2, std::size_t(state.range(0))};
  for (auto _ : state)
    benchmark::DoNotOptimize(VnmMatrix::from_dense_magnitude(w, cfg));
  state.SetLabel("compress 64:2:" + std::to_string(state.range(0)));
}
BENCHMARK(BM_VnmCompression)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

using venom::bench::seconds_per_call;

/// Median of nine interleaved timing pairs of two paths on one problem:
/// `ratio` is the median per-pair slow_s / fast_s, so host drift between
/// the paths cancels within each pair instead of landing on one side of
/// the ratio; `fast_s` / `slow_s` are the median per-call times.
struct PairedTiming {
  double ratio = 0.0;
  double fast_s = 0.0;
  double slow_s = 0.0;
};

template <typename Fast, typename Slow>
PairedTiming paired_timing(Fast&& fast, Slow&& slow) {
  constexpr int kSamples = 9;
  std::vector<double> ratios, fast_s, slow_s;
  for (int i = 0; i < kSamples; ++i) {
    fast_s.push_back(seconds_per_call(fast, 0.05));
    slow_s.push_back(seconds_per_call(slow, 0.05));
    ratios.push_back(slow_s.back() / fast_s.back());
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(ratios), median(fast_s), median(slow_s)};
}

/// linear_narrow_i8: a one-thread Linear::forward on a 64:2:8 1024x256
/// int8 layer (the ffn-in of the serving model) at 16 tokens over the
/// same call at 1 token. A decode step is 1-2 tokens wide; when narrow
/// tiles fall off the vectorized path the ratio drops far below 1 (a
/// 1-token call costing several 16-token ones).
void narrow_linear_row(std::vector<venom::bench::JsonRecord>& records) {
  Rng rng(4);
  transformer::Linear lin = transformer::Linear::random(1024, 256, rng);
  lin.sparsify({64, 2, 8});
  lin.set_weight_dtype(ops::Dtype::kI8);
  ops::ExecContextOptions one_thread;
  one_thread.threads = 1;
  ops::ExecContext ctx(one_thread);
  const HalfMatrix x1 = random_half_matrix(256, 1, rng);
  const HalfMatrix x16 = random_half_matrix(256, 16, rng);
  const PairedTiming t = paired_timing(
      [&] { benchmark::DoNotOptimize(lin.forward(x1, &ctx)); },
      [&] { benchmark::DoNotOptimize(lin.forward(x16, &ctx)); });
  records.push_back({"linear_narrow_i8", "1024x256 64:2:8 int8 16 vs 1 tokens",
                     t.fast_s * 1e6, t.ratio, "us"});
  std::printf("Linear::forward int8 1024x256 (1 thread): %.0f us at 1 token, "
              "%.0f us at 16, 16-token/1-token cost ratio %.2f\n",
              t.fast_s * 1e6, t.slow_s * 1e6, t.ratio);
}

/// Same-run ratio rows for the encoder's time outside the SpMM.
///
/// attention_core: the multi-head attention core against its per-query
/// scalar oracle on a 256-token causal prefill (hidden 256, 4 heads), on
/// a one-thread context so the ratio measures the kernels, not the
/// runner's core count.
///
/// gelu_after_linear: GELU's cost per element at 9 tokens over its cost
/// at 8, each call right after a Linear::forward at that width. ~1.0 when
/// healthy; a conversion that leaves the upper ymm state dirty on a
/// ragged width makes every later legacy-SSE tanhf pay a several-fold
/// penalty, and the ratio falls to ~0.25 (README "Attention core").
void transformer_rows(std::vector<venom::bench::JsonRecord>& records) {
  constexpr std::size_t kTokens = 256, kHidden = 256, kHeads = 4, kFfn = 1024;
  Rng rng(3);
  const HalfMatrix q = random_half_matrix(kHidden, kTokens, rng);
  const HalfMatrix k = random_half_matrix(kHidden, kTokens, rng);
  const HalfMatrix v = random_half_matrix(kHidden, kTokens, rng);
  const std::vector<std::size_t> ends = {kTokens};
  const transformer::AttentionMask causal{.causal = true};
  ops::ExecContextOptions one_thread;
  one_thread.threads = 1;
  ops::ExecContext ctx(one_thread);
  HalfMatrix out;
  const double core_s = seconds_per_call([&] {
    transformer::attention_core({.q = q, .k = k, .v = v, .seq_ends = ends,
                                 .heads = kHeads, .mask = causal},
                                {.context = &out}, ctx);
    benchmark::DoNotOptimize(out.data());
  });
  const double ref_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(
        transformer::attention_reference(q, k, v, ends, kHeads, causal));
  });
  // Each live (query, key) pair: dh multiply-adds in the scores and dh in
  // the context, per head.
  const double flops = 2.0 * 2.0 * double(kTokens * (kTokens + 1) / 2) *
                       double(kHidden);
  const std::string shape = "T256 h256x4 causal";
  records.push_back({"attention_core", shape, flops / core_s * 1e-9,
                     ref_s / core_s});
  records.push_back({"attention_reference", shape, flops / ref_s * 1e-9, 1.0});
  std::printf("Attention core vs per-query oracle (%s, 1 thread):\n"
              "  %7.2f GFLOP/s  (oracle %5.2f GFLOP/s, speedup %.1fx)\n",
              shape.c_str(), flops / core_s * 1e-9, flops / ref_s * 1e-9,
              ref_s / core_s);

  transformer::Linear lin = transformer::Linear::random(kFfn, kHidden, rng);
  lin.sparsify({64, 2, 8});
  // Nine interleaved samples of 30 calls at each width; the ratio is the
  // median of the per-sample ratios, so host drift between the two widths
  // cancels.
  const HalfMatrix x8 = random_half_matrix(kHidden, 8, rng);
  const HalfMatrix x9 = random_half_matrix(kHidden, 9, rng);
  const auto ns_per_element = [&](const HalfMatrix& x) {
    constexpr int kCalls = 30;
    double ns = 0.0;
    for (int i = 0; i < kCalls; ++i) {
      const HalfMatrix y = lin.forward(x);
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(transformer::gelu(y));
      ns += std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count();
    }
    return ns / kCalls / double(kFfn * x.cols());
  };
  std::vector<double> ratios, ragged_ns;
  for (int sample = 0; sample < 9; ++sample) {
    const double aligned = ns_per_element(x8);
    ragged_ns.push_back(ns_per_element(x9));
    ratios.push_back(aligned / ragged_ns.back());
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(ragged_ns.begin(), ragged_ns.end());
  const double ratio = ratios[ratios.size() / 2];
  const double ragged = ragged_ns[ragged_ns.size() / 2];
  records.push_back({"gelu_after_linear", "1024x9 vs 1024x8 tokens",
                     1.0 / ragged, ratio, "gelem_per_s"});
  std::printf("GELU after Linear::forward: %.1f ns/element at 9 tokens, "
              "8-token/9-token cost ratio %.2f\n",
              ragged, ratio);
}

/// Measures the packed float-panel pipeline against the seed scalar path
/// on the Table-1 bench shape and writes BENCH_kernels.json so the perf
/// trajectory is tracked across PRs.
void write_speedup_json() {
  const HalfMatrix b = activations();
  std::vector<venom::bench::JsonRecord> records;
  std::printf("SpMM fast-vs-seed (R%zux K%zu x C%zu):\n", kR, kK, kC);
  for (const VnmConfig cfg : {VnmConfig{64, 2, 8}, VnmConfig{128, 2, 16}}) {
    const VnmMatrix a = VnmMatrix::from_dense_magnitude(weight(), cfg);
    const double flops = spatha::spmm_flops(a, kC);
    const ops::MatmulArgs margs = ops::MatmulArgs::make(a, b);
    const PairedTiming fast_vs_seed = paired_timing(
        [&] { benchmark::DoNotOptimize(ops::matmul(margs)); },
        [&] {
          const ops::ScopedBackend forced("vnm-scalar");
          benchmark::DoNotOptimize(ops::matmul(margs));
        });
    const double fast_s = fast_vs_seed.fast_s;
    const double seed_s = fast_vs_seed.slow_s;
    const std::string shape = "R" + std::to_string(kR) + "xK" +
                              std::to_string(kK) + "xC" + std::to_string(kC) +
                              " " + std::to_string(cfg.v) + ":" +
                              std::to_string(cfg.n) + ":" +
                              std::to_string(cfg.m);
    records.push_back({"spmm_vnm", shape, flops / fast_s * 1e-9,
                       fast_vs_seed.ratio});
    records.push_back({"spmm_vnm_scalar", shape, flops / seed_s * 1e-9, 1.0});
    std::printf("  %-24s %7.2f GFLOP/s  (seed %5.2f GFLOP/s, speedup %.2fx)\n",
                shape.c_str(), flops / fast_s * 1e-9, flops / seed_s * 1e-9,
                fast_vs_seed.ratio);

    // Reduced-precision rows on the same shape: pre-quantized weights
    // through the dispatch layer, ratios against the same seed run so
    // they compare directly with the fp16 rows above.
    const auto qa = std::make_shared<const quant::QuantizedVnmMatrix>(
        quant::QuantizedVnmMatrix::quantize(a));
    const ops::MatmulArgs qargs = ops::MatmulArgs::make(qa, b);
    const double i8_s = seconds_per_call(
        [&] { benchmark::DoNotOptimize(ops::matmul(qargs)); });
    records.push_back({"spmm_vnm_i8", shape, flops / i8_s * 1e-9,
                       seed_s / i8_s});
    std::printf("  %-24s %7.2f GFLOP/s  (%.2fx over fp16 fast)\n",
                (shape + " int8").c_str(), flops / i8_s * 1e-9, fast_s / i8_s);

    const auto fa = std::make_shared<const quant::Fp8VnmMatrix>(
        quant::Fp8VnmMatrix::quantize(a, Fp8Format::kE4M3));
    const ops::MatmulArgs fargs = ops::MatmulArgs::make(fa, b);
    const double f8_s = seconds_per_call(
        [&] { benchmark::DoNotOptimize(ops::matmul(fargs)); });
    records.push_back({"spmm_vnm_fp8", shape, flops / f8_s * 1e-9,
                       seed_s / f8_s});
    std::printf("  %-24s %7.2f GFLOP/s  (%.2fx over fp16 fast)\n",
                (shape + " fp8").c_str(), flops / f8_s * 1e-9, fast_s / f8_s);
  }
  transformer_rows(records);
  narrow_linear_row(records);
  // Merge (not overwrite) so bench_autotune's tuned-vs-heuristic records
  // survive a re-run of this harness and vice versa.
  venom::bench::merge_bench_json("BENCH_kernels.json", records);
  std::printf("wrote BENCH_kernels.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The fast-vs-seed measurement (and its JSON overwrite) runs only on a
  // bare invocation; flagged runs (--benchmark_filter, --benchmark_list_tests,
  // --help, ...) go straight to google-benchmark.
  if (argc == 1) write_speedup_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
