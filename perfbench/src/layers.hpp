// The traced run's per-layer measurements below the serving layer:
// outside-in replay of the encoder (transformer + token ops), kernel
// comparison at the workload's linear shapes (ops / spatha / quant),
// and the machine's measured FMA peak and streaming bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api.hpp"
#include "bench.hpp"

namespace perfbench {

/// One batch for the replay: packed inputs and per-sequence ends. For
/// the cached path, `history` is how many positions every sequence's KV
/// ring already holds before the batch runs (0 = a prefill from empty).
struct ReplayBatch {
  api::Tensor x;
  std::vector<std::size_t> ends;
  std::size_t history = 0;
  bool cached = false;
};

/// Builds a batch of sequences with the given lengths from `stream`.
ReplayBatch make_replay_batch(const api::Model& model,
                              const std::vector<std::uint32_t>& lengths,
                              std::uint64_t stream, bool cached,
                              std::size_t history = 0);

/// Replays `batch` `reps` times: the whole encoder, each layer, each
/// attention block, and their leaf calls (linears and token ops), each a
/// separate public call timed from outside. Adds the transformer.* and
/// the token-op metrics. Fails (returns false) if the composed leaf
/// calls do not reproduce the library's own layer output bit for bit.
bool replay_transformer(const api::Model& model, const ReplayBatch& batch,
                        std::size_t kv_capacity, int reps, Tracer& tracer,
                        MetricSet& out);

/// Times the dense, 64:2:8 fp16 and int8 kernels, the ops dispatch and
/// Linear::forward over layer 0's six linear shapes at `b_cols` tokens.
/// `fma_gflops` (0 = unknown) turns rates into fractions of peak.
void measure_kernels(const api::Model& model, std::size_t b_cols,
                     std::uint64_t stream, double fma_gflops, MetricSet& out);

struct MachinePeak {
  double fma_gflops = 0.0;
  double stream_gbps = 0.0;
  bool stream_valid = false;  ///< arrays >= 4x the last-level cache
  std::size_t llc_bytes = 0;
  std::size_t stream_bytes = 0;
};
/// Calibrated all-thread FMA peak and a streaming-triad bandwidth probe.
MachinePeak measure_machine(std::size_t threads);

}  // namespace perfbench
