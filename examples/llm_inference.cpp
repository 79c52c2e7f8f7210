// Example: sparse transformer inference end to end (the Fig. 14/15
// workflow at laptop scale).
//
// Builds a 2-layer encoder with BERT-like geometry, runs a dense forward
// pass, sparsifies every linear weight to V:N:M (rerouting all six GEMMs
// per layer through Spatha), runs again, and reports:
//   - the measured CPU wall time of one forward pass of each model,
//   - output agreement between dense and sparse models,
//   - the modeled RTX 3090 latency for the real BERT-large at batch 32.
// The per-layer and per-op breakdown of a forward pass is measured by the
// benchmark's traced replay:
//   python3 perfbench/run.py --workload prefill_long --trace 1
#include <cstdio>

#include "common/rng.hpp"
#include "common/timing.hpp"
#include "transformer/encoder.hpp"
#include "transformer/latency_model.hpp"

using namespace venom;
using namespace venom::transformer;

int main() {
  // A scaled-down BERT: 2 layers, hidden 256, 8 heads, seq 64.
  const ModelConfig cfg{.name = "mini-BERT", .layers = 2, .hidden = 256,
                        .heads = 8, .ffn_hidden = 1024, .seq_len = 64};
  Rng rng(11);
  Encoder dense_model(cfg, rng);
  Rng rng_same(11);
  Encoder sparse_model(cfg, rng_same);  // identical weights
  const VnmConfig sparsity{64, 2, 8};   // 75%
  sparse_model.sparsify(sparsity);

  Rng data_rng(23);
  const HalfMatrix x = random_half_matrix(cfg.hidden, cfg.seq_len, data_rng,
                                          0.5f);

  HalfMatrix y_dense, y_sparse;
  const double dense_s =
      seconds_per_call([&] { y_dense = dense_model.forward(x); });
  const double sparse_s =
      seconds_per_call([&] { y_sparse = sparse_model.forward(x); });

  std::printf("mini-BERT (%zu layers, hidden %zu, seq %zu), weights 64:2:8\n\n",
              cfg.layers, cfg.hidden, cfg.seq_len);
  std::printf("Measured CPU wall time per forward pass:\n"
              "  dense  %7.1f ms\n  sparse %7.1f ms  (%.2fx)\n"
              "Per-layer / per-op breakdown: python3 perfbench/run.py "
              "--workload prefill_long --trace 1\n",
              dense_s * 1e3, sparse_s * 1e3, dense_s / sparse_s);

  // Output agreement (cosine similarity across all activations).
  double dot = 0.0, n1 = 0.0, n2 = 0.0;
  for (std::size_t i = 0; i < y_dense.size(); ++i) {
    const double a = y_dense.flat()[i].to_float();
    const double b = y_sparse.flat()[i].to_float();
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
  }
  std::printf("\ndense/sparse output cosine similarity: %.4f\n",
              dot / std::sqrt(n1 * n2));

  // What the same sparsification buys on the paper's testbed.
  const auto& dev = gpumodel::rtx3090();
  const auto lat_d = model_encoder_latency(dev, bert_large(), 32, std::nullopt);
  const auto lat_s = model_encoder_latency(dev, bert_large(), 32, sparsity);
  std::printf(
      "\nModeled BERT-large (24 layers, bs=32) on RTX 3090:\n"
      "  dense  %.0fms   sparse(64:2:8)  %.0fms   -> %.2fx end-to-end,\n"
      "  GEMM time %.0fms -> %.0fms (%.1fx tensor-contraction reduction)\n",
      lat_d.total() * 1e3, lat_s.total() * 1e3, lat_d.total() / lat_s.total(),
      lat_d.gemm_s * 1e3, lat_s.gemm_s * 1e3, lat_d.gemm_s / lat_s.gemm_s);
  return 0;
}
