// The benchmark's one adapter over the venom library.
//
// Every call the benchmark makes into the library goes through this file
// and api.cpp, so a refactor of the library's public surface (forward
// signatures, the serving front end, the kernel entry points) updates
// one place. The rest of the benchmark sees plain data: fp16 tensors,
// fp32 score matrices, KV rings, and the small structs declared here.
//
// Deliberately unused: the per-call timing sinks of the forward paths
// (the benchmark times calls from outside), the library's own serving
// bench harness (the benchmark is its own harness), the STen wrapper and
// the 4-bit codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"
#include "transformer/kv_cache.hpp"

namespace venom::transformer {
class Encoder;
}
namespace venom::serving {
struct Request;
struct Response;
class EngineGroup;
class InferenceEngine;
}  // namespace venom::serving

namespace perfbench::api {

using Tensor = venom::HalfMatrix;        ///< (features x tokens) fp16
using FloatTensor = venom::FloatMatrix;  ///< fp32 scores / kernel outputs
using Cache = venom::transformer::KvCache;

/// FNV-1a 64 over the fp16 bit patterns (and the shape) of `t`.
std::uint64_t hash_bits(const Tensor& t);
/// Deterministic N(0, 0.25) activations for one input stream.
Tensor make_input(std::size_t hidden, std::size_t tokens, std::uint64_t stream);

// ------------------------------------------------------------------ model

/// The one model every workload serves (ROADMAP's probe model), in the
/// variants the workloads need.
struct ModelSpec {
  static constexpr std::size_t layers = 2;
  static constexpr std::size_t hidden = 256;
  static constexpr std::size_t heads = 4;
  static constexpr std::size_t ffn = 1024;
  static constexpr std::size_t v = 64, n = 2, m = 8;
  bool causal = false;
  std::size_t window = 0;  ///< causal sliding window (0 = unbounded)
  bool int8 = false;       ///< quantize the sparse weights to int8
};

/// Wall seconds of each model set-up step.
struct BuildTimes {
  double encoder_build_s = 0.0;
  double sparsify_s = 0.0;
  double quantize_s = 0.0;
};

/// Which linear layer of an encoder layer.
enum class Proj { kQ, kK, kV, kO, kFfnIn, kFfnOut };
inline constexpr Proj kAllProj[] = {Proj::kQ, Proj::kK, Proj::kV,
                                    Proj::kO, Proj::kFfnIn, Proj::kFfnOut};

/// A pruned encoder built from a fixed weight seed.
class Model {
 public:
  static Model build(const ModelSpec& spec, BuildTimes* times = nullptr);

  const ModelSpec& spec() const { return spec_; }
  /// Compressed bytes of every sparse weight (values + metadata).
  std::size_t weight_bytes() const;
  /// Resident bytes of one session's KV ring of `capacity` slots.
  std::size_t kv_bytes(std::size_t capacity) const;
  Cache make_cache(std::size_t capacity) const;

  // Reference paths: direct library calls, no serving layer.
  Tensor forward(const Tensor& x) const;
  /// prefill(prompt) then `new_tokens` decode_step calls, each fed the
  /// previous output column; returns the decode outputs column by column.
  Tensor generate(const Tensor& prompt, std::size_t new_tokens,
                  std::size_t kv_capacity) const;

  // Outside-in replay: one public library call each.
  Tensor encoder_forward(const Tensor& x,
                         std::span<const std::size_t> ends) const;
  Tensor encoder_forward_cached(const Tensor& x,
                                std::span<const std::size_t> ends,
                                std::span<Cache* const> caches) const;
  Tensor layer_forward(std::size_t l, const Tensor& x,
                       std::span<const std::size_t> ends) const;
  Tensor layer_forward_cached(std::size_t l, const Tensor& x,
                              std::span<const std::size_t> ends,
                              std::span<Cache* const> caches) const;
  Tensor attention_forward(std::size_t l, const Tensor& x,
                           std::span<const std::size_t> ends) const;
  Tensor attention_forward_cached(std::size_t l, const Tensor& x,
                                  std::span<const std::size_t> ends,
                                  std::span<Cache* const> caches) const;
  Tensor linear_forward(std::size_t l, Proj p, const Tensor& x) const;

 private:
  ModelSpec spec_;
  std::shared_ptr<venom::transformer::Encoder> enc_;
  friend class Server;
  friend struct LinearOperand;
};

// ------------------------------------------------------------ token ops

/// LayerNorm with the encoder's initial affine (gamma 1, beta 0).
Tensor layer_norm(const Tensor& x);
Tensor gelu(const Tensor& x);
Tensor add(const Tensor& x, const Tensor& y);
FloatTensor attention_scores(const Tensor& qh, const Tensor& kh, float scale);
void attention_scores_into(const Tensor& qh, const Tensor& kh, float scale,
                           FloatTensor& out);
void softmax(FloatTensor& scores);
Tensor attention_context(const FloatTensor& p, const Tensor& vh);
void attention_context_into(const FloatTensor& p, const Tensor& vh,
                            Tensor& out);
/// KvCache::append / gather_k / gather_v.
std::size_t cache_append(Cache& c, std::size_t l, const Tensor& k,
                         const Tensor& v, std::size_t src);
void cache_gather(const Cache& c, std::size_t l, std::size_t row0,
                  std::size_t dh, std::size_t lo, std::size_t w, Tensor& kh,
                  Tensor& vh);

// ---------------------------------------------------------------- serving

/// The serving knobs the workloads set; everything else, the batcher's
/// flush timer included, keeps the library's defaults.
struct ServeSpec {
  std::size_t replicas = 0;  ///< 0 = a bare InferenceEngine, else a group
  std::size_t max_batch_tokens = 256;
  std::size_t kv_capacity = 512;
  std::size_t max_new_tokens = 256;
  std::size_t prefill_chunk_tokens = 0;  ///< 0 = max_batch_tokens
};

/// The public Response fields the benchmark reads.
struct Reply {
  Tensor output;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double prefill_ms = 0.0;
  std::size_t batch_tokens = 0;
  std::uint32_t replica = 0;
};

enum class Outcome { kOk, kShed, kFailed };

/// The future of one submitted request.
class Ticket {
 public:
  Ticket();
  Ticket(Ticket&&) noexcept;
  Ticket& operator=(Ticket&&) noexcept;
  ~Ticket();
  /// Blocks at most `us` microseconds; true when the result is ready.
  bool wait_us(long us) const;
  /// Settles the ticket: kOk fills `out`; a deadline shed is kShed; any
  /// other failure is kFailed with its message in `error`.
  Outcome get(Reply& out, std::string& error);

 private:
  friend class Server;
  std::unique_ptr<std::future<venom::serving::Response>> fut_;
};

struct ServerStats {
  std::size_t batches = 0;
  std::size_t shed = 0;  ///< deadline sheds + admission refusals
  std::size_t plan_hits = 0;
  std::size_t plan_misses = 0;
  std::size_t decode_steps = 0;
  double avg_batch_tokens = 0.0;
  std::vector<std::size_t> replica_batches;
};

/// One serving front end: an InferenceEngine, or an EngineGroup of
/// replicas sharing the model's weights.
class Server {
 public:
  Server(const Model& model, const ServeSpec& spec);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits an encode request. kShed when admission refuses it at the
  /// door, kFailed when the library rejects it; kOk fills `ticket`.
  Outcome submit_encode(Tensor input, Ticket& ticket, std::string& error);
  /// Submits a generation request; `on_token` runs on a worker thread
  /// after the prompt and after every decode step.
  Outcome submit_generate(Tensor prompt, std::size_t new_tokens,
                          std::function<void()> on_token, Ticket& ticket,
                          std::string& error);
  ServerStats stats() const;
  void reset_stats();
  void shutdown();

 private:
  Outcome submit(venom::serving::Request req, Ticket& ticket,
                 std::string& error);

  std::unique_ptr<venom::serving::EngineGroup> group_;
  std::unique_ptr<venom::serving::InferenceEngine> engine_;
  std::size_t refused_ = 0;  // admission refusals at submit (one caller)
};

// ---------------------------------------------------------------- kernels

/// One linear layer's weight in every datapath the kernels compare.
struct LinearOperand {
  LinearOperand(const Model& model, std::size_t l, Proj p);
  ~LinearOperand();
  LinearOperand(const LinearOperand&) = delete;
  LinearOperand& operator=(const LinearOperand&) = delete;

  std::size_t rows() const;
  std::size_t cols() const;
  /// Useful flops of the sparse product (2 * nnz * b_cols) and of the
  /// dense one (2 * rows * cols * b_cols).
  double sparse_flops(std::size_t b_cols) const;
  double dense_flops(std::size_t b_cols) const;
  /// Computed bytes: the A operand's storage, B in fp16, C in fp32.
  double sparse_bytes(std::size_t b_cols) const;
  double dense_bytes(std::size_t b_cols) const;
  double int8_bytes(std::size_t b_cols) const;

  FloatTensor spmm_vnm(const Tensor& b) const;      ///< spatha, fp16
  FloatTensor dense_gemm(const Tensor& b) const;    ///< dense baseline
  FloatTensor spmm_vnm_i8(const Tensor& b) const;   ///< quant, int8
  FloatTensor ops_matmul(const Tensor& b) const;    ///< ops dispatch, fp16
  Tensor linear_forward(const Tensor& b) const;     ///< Linear::forward

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------- machine

/// Compile-time CPU feature tags of the library build.
std::string cpu_fingerprint();
/// Worker threads of the library's shared pool.
std::size_t pool_threads();

}  // namespace perfbench::api
