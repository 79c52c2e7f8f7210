// The only translation unit that calls into the venom library (see
// api.hpp).
#include "api.hpp"

#include <chrono>
#include <exception>

#include "baselines/gemm.hpp"
#include "common/cpu_features.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "ops/matmul.hpp"
#include "quant/quantized_vnm.hpp"
#include "serving/admission.hpp"
#include "serving/engine.hpp"
#include "serving/router.hpp"
#include "spatha/spmm.hpp"
#include "transformer/encoder.hpp"
#include "transformer/ops.hpp"

namespace perfbench::api {

namespace vt = venom::transformer;
namespace vs = venom::serving;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const vt::Linear& linear_of(const vt::Encoder& enc, std::size_t l, Proj p) {
  // The attention projections have only non-const accessors; the layer
  // is never mutated through them.
  auto& layer = const_cast<vt::EncoderLayer&>(enc.layer(l));
  switch (p) {
    case Proj::kQ: return layer.attention().wq();
    case Proj::kK: return layer.attention().wk();
    case Proj::kV: return layer.attention().wv();
    case Proj::kO: return layer.attention().wo();
    case Proj::kFfnIn: return layer.ffn_in();
    case Proj::kFfnOut: return layer.ffn_out();
  }
  return layer.ffn_out();
}

Tensor column(const Tensor& t, std::size_t c) {
  Tensor out(t.rows(), 1);
  for (std::size_t r = 0; r < t.rows(); ++r) out(r, 0) = t(r, c);
  return out;
}

const std::vector<float>& ones(std::size_t n) {
  thread_local std::vector<float> v;
  v.assign(n, 1.0f);
  return v;
}

const std::vector<float>& zeros(std::size_t n) {
  thread_local std::vector<float> v;
  v.assign(n, 0.0f);
  return v;
}

}  // namespace

std::uint64_t hash_bits(const Tensor& t) {
  venom::Fnv1a f;
  f.mix(t.rows());
  f.mix(t.cols());
  for (const venom::half_t& h : t.flat()) f.mix(h.bits());
  return f.h;
}

Tensor make_input(std::size_t hidden, std::size_t tokens,
                  std::uint64_t stream) {
  venom::Rng rng = venom::Rng::seeded("perfbench-input", stream);
  return venom::random_half_matrix(hidden, tokens, rng, 0.5f);
}

// ------------------------------------------------------------------ model

Model Model::build(const ModelSpec& spec, BuildTimes* times) {
  BuildTimes local;
  BuildTimes& bt = times != nullptr ? *times : local;
  vt::ModelConfig cfg{.name = "perfbench",
                      .layers = spec.layers,
                      .hidden = spec.hidden,
                      .heads = spec.heads,
                      .ffn_hidden = spec.ffn,
                      .seq_len = 512,
                      .causal = spec.causal,
                      .attn_window = spec.window};
  auto t0 = std::chrono::steady_clock::now();
  venom::Rng rng = venom::Rng::seeded("perfbench-model");
  auto enc = std::make_shared<vt::Encoder>(cfg, rng);
  bt.encoder_build_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  enc->sparsify(venom::VnmConfig{spec.v, spec.n, spec.m});
  bt.sparsify_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  if (spec.int8) enc->set_weight_dtype(venom::ops::Dtype::kI8);
  bt.quantize_s = seconds_since(t0);

  Model m;
  m.spec_ = spec;
  m.enc_ = std::move(enc);
  return m;
}

std::size_t Model::weight_bytes() const {
  std::size_t bytes = 0;
  for (std::size_t l = 0; l < enc_->layer_count(); ++l)
    for (Proj p : kAllProj) {
      const vt::Linear& lin = linear_of(*enc_, l, p);
      bytes += lin.int8_weight() != nullptr
                   ? lin.int8_weight()->compressed_bytes()
                   : lin.sparse_weight().compressed_bytes();
    }
  return bytes;
}

std::size_t Model::kv_bytes(std::size_t capacity) const {
  return enc_->make_cache(capacity).bytes();
}

Cache Model::make_cache(std::size_t capacity) const {
  return enc_->make_cache(capacity);
}

Tensor Model::forward(const Tensor& x) const { return enc_->forward(x); }

Tensor Model::generate(const Tensor& prompt, std::size_t new_tokens,
                       std::size_t kv_capacity) const {
  Cache cache = enc_->make_cache(kv_capacity);
  const Tensor y = enc_->prefill(prompt, cache);
  Tensor next = column(y, y.cols() - 1);
  Tensor out(prompt.rows(), new_tokens);
  for (std::size_t t = 0; t < new_tokens; ++t) {
    next = enc_->decode_step(next, cache);
    for (std::size_t r = 0; r < out.rows(); ++r) out(r, t) = next(r, 0);
  }
  return out;
}

Tensor Model::encoder_forward(const Tensor& x,
                              std::span<const std::size_t> ends) const {
  return enc_->forward_batched(x, ends);
}

Tensor Model::encoder_forward_cached(const Tensor& x,
                                     std::span<const std::size_t> ends,
                                     std::span<Cache* const> caches) const {
  return enc_->forward_cached(x, ends, caches);
}

Tensor Model::layer_forward(std::size_t l, const Tensor& x,
                            std::span<const std::size_t> ends) const {
  return enc_->layer(l).forward_batched(x, ends);
}

Tensor Model::layer_forward_cached(std::size_t l, const Tensor& x,
                                   std::span<const std::size_t> ends,
                                   std::span<Cache* const> caches) const {
  return enc_->layer(l).forward_cached(x, ends, caches, l);
}

Tensor Model::attention_forward(std::size_t l, const Tensor& x,
                                std::span<const std::size_t> ends) const {
  return enc_->layer(l).attention().forward_batched(x, ends);
}

Tensor Model::attention_forward_cached(std::size_t l, const Tensor& x,
                                       std::span<const std::size_t> ends,
                                       std::span<Cache* const> caches) const {
  return enc_->layer(l).attention().forward_cached(x, ends, caches, l);
}

Tensor Model::linear_forward(std::size_t l, Proj p, const Tensor& x) const {
  return linear_of(*enc_, l, p).forward(x);
}

// ------------------------------------------------------------ token ops

Tensor layer_norm(const Tensor& x) {
  return vt::layer_norm(x, ones(x.rows()), zeros(x.rows()));
}
Tensor gelu(const Tensor& x) { return vt::gelu(x); }
Tensor add(const Tensor& x, const Tensor& y) { return vt::add(x, y); }
FloatTensor attention_scores(const Tensor& qh, const Tensor& kh, float scale) {
  return vt::attention_scores(qh, kh, scale);
}
void attention_scores_into(const Tensor& qh, const Tensor& kh, float scale,
                           FloatTensor& out) {
  vt::attention_scores_into(qh, kh, scale, out);
}
void softmax(FloatTensor& scores) { vt::softmax_rows(scores); }
Tensor attention_context(const FloatTensor& p, const Tensor& vh) {
  return vt::attention_context(p, vh);
}
void attention_context_into(const FloatTensor& p, const Tensor& vh,
                            Tensor& out) {
  vt::attention_context_into(p, vh, out);
}
std::size_t cache_append(Cache& c, std::size_t l, const Tensor& k,
                         const Tensor& v, std::size_t src) {
  return c.append(l, k, v, src);
}
void cache_gather(const Cache& c, std::size_t l, std::size_t row0,
                  std::size_t dh, std::size_t lo, std::size_t w, Tensor& kh,
                  Tensor& vh) {
  c.gather_k(l, row0, dh, lo, w, kh);
  c.gather_v(l, row0, dh, lo, w, vh);
}

// ---------------------------------------------------------------- serving

Ticket::Ticket() = default;
Ticket::Ticket(Ticket&&) noexcept = default;
Ticket& Ticket::operator=(Ticket&&) noexcept = default;
Ticket::~Ticket() = default;

bool Ticket::wait_us(long us) const {
  return fut_->wait_for(std::chrono::microseconds(us)) ==
         std::future_status::ready;
}

Outcome Ticket::get(Reply& out, std::string& error) {
  try {
    vs::Response r = fut_->get();
    out.output = std::move(r.output);
    out.queue_ms = r.queue_ms;
    out.exec_ms = r.exec_ms;
    out.prefill_ms = r.prefill_ms;
    out.batch_tokens = r.batch_tokens;
    out.replica = r.replica;
    return Outcome::kOk;
  } catch (const vs::AdmissionError& e) {
    error = e.what();
    return Outcome::kShed;
  } catch (const std::exception& e) {
    error = e.what();
    return Outcome::kFailed;
  }
}

Server::Server(const Model& model, const ServeSpec& spec) {
  vs::Options opts;
  opts.batching.max_batch_tokens = spec.max_batch_tokens;
  opts.kv_capacity = spec.kv_capacity;
  opts.max_new_tokens = spec.max_new_tokens;
  opts.prefill_chunk_tokens = spec.prefill_chunk_tokens;
  std::shared_ptr<const vt::Encoder> enc = model.enc_;
  if (spec.replicas == 0) {
    engine_ = std::make_unique<vs::InferenceEngine>(enc, opts);
  } else {
    opts.replicas = spec.replicas;
    group_ = std::make_unique<vs::EngineGroup>(enc, opts);
  }
}

Server::~Server() { shutdown(); }

Outcome Server::submit(vs::Request req, Ticket& ticket, std::string& error) {
  try {
    ticket.fut_ = std::make_unique<std::future<vs::Response>>(
        group_ ? group_->submit(std::move(req))
               : engine_->submit(std::move(req)));
    return Outcome::kOk;
  } catch (const vs::AdmissionError& e) {
    ++refused_;
    error = e.what();
    return Outcome::kShed;
  } catch (const std::exception& e) {
    error = e.what();
    return Outcome::kFailed;
  }
}

Outcome Server::submit_encode(Tensor input, Ticket& ticket,
                              std::string& error) {
  vs::Request req;
  req.input = std::move(input);
  return submit(std::move(req), ticket, error);
}

Outcome Server::submit_generate(Tensor prompt, std::size_t new_tokens,
                                std::function<void()> on_token,
                                Ticket& ticket, std::string& error) {
  vs::Request req;
  req.input = std::move(prompt);
  req.max_new_tokens = new_tokens;
  req.on_token = [hook = std::move(on_token)](std::span<venom::half_t>) {
    hook();
    return true;
  };
  return submit(std::move(req), ticket, error);
}

ServerStats Server::stats() const {
  ServerStats s;
  const auto fold = [&s](const vs::ServingStats& r) {
    s.batches += r.batches;
    s.shed += r.shed;
    s.plan_hits += r.plan_cache_hits;
    s.plan_misses += r.plan_cache_misses;
    s.decode_steps += r.decode_steps;
    s.avg_batch_tokens += r.avg_batch_tokens * double(r.batches);
    s.replica_batches.push_back(r.batches);
  };
  if (group_) {
    for (const vs::ServingStats& r : group_->stats().replicas) fold(r);
  } else {
    fold(engine_->stats());
  }
  if (s.batches > 0) s.avg_batch_tokens /= double(s.batches);
  s.shed += refused_;
  return s;
}

void Server::reset_stats() {
  refused_ = 0;
  if (group_)
    group_->reset_stats();
  else
    engine_->reset_stats();
}

void Server::shutdown() {
  if (group_) group_->shutdown();
  if (engine_) engine_->shutdown();
}

// ---------------------------------------------------------------- kernels

struct LinearOperand::Impl {
  const vt::Linear* linear = nullptr;
  venom::HalfMatrix dense;
  std::shared_ptr<const venom::VnmMatrix> vnm;
  venom::quant::QuantizedVnmMatrix i8;
};

LinearOperand::LinearOperand(const Model& model, std::size_t l, Proj p)
    : impl_(std::make_unique<Impl>()) {
  impl_->linear = &linear_of(*model.enc_, l, p);
  impl_->vnm = std::make_shared<venom::VnmMatrix>(
      impl_->linear->sparse_weight());
  impl_->dense = impl_->vnm->to_dense();
  impl_->i8 = venom::quant::QuantizedVnmMatrix::quantize(*impl_->vnm);
}

LinearOperand::~LinearOperand() = default;

std::size_t LinearOperand::rows() const { return impl_->vnm->rows(); }
std::size_t LinearOperand::cols() const { return impl_->vnm->cols(); }

double LinearOperand::sparse_flops(std::size_t b_cols) const {
  return venom::spatha::spmm_flops(*impl_->vnm, b_cols);
}
double LinearOperand::dense_flops(std::size_t b_cols) const {
  return venom::gemm_flops(rows(), cols(), b_cols);
}
double LinearOperand::sparse_bytes(std::size_t b_cols) const {
  return double(impl_->vnm->compressed_bytes()) +
         double(cols() * b_cols * 2 + rows() * b_cols * 4);
}
double LinearOperand::dense_bytes(std::size_t b_cols) const {
  return double(rows() * cols() * 2 + cols() * b_cols * 2 +
                rows() * b_cols * 4);
}
double LinearOperand::int8_bytes(std::size_t b_cols) const {
  return double(impl_->i8.compressed_bytes()) +
         double(cols() * b_cols * 2 + rows() * b_cols * 4);
}

FloatTensor LinearOperand::spmm_vnm(const Tensor& b) const {
  return venom::spatha::spmm_vnm(*impl_->vnm, b);
}
FloatTensor LinearOperand::dense_gemm(const Tensor& b) const {
  return venom::gemm_dense(impl_->dense, b);
}
FloatTensor LinearOperand::spmm_vnm_i8(const Tensor& b) const {
  return venom::quant::spmm_vnm_i8(impl_->i8, b);
}
FloatTensor LinearOperand::ops_matmul(const Tensor& b) const {
  return venom::ops::matmul(venom::ops::MatmulArgs::make(*impl_->vnm, b));
}
Tensor LinearOperand::linear_forward(const Tensor& b) const {
  return impl_->linear->forward(b);
}

// ---------------------------------------------------------------- machine

std::string cpu_fingerprint() { return venom::cpu_feature_string(); }
std::size_t pool_threads() { return venom::ThreadPool::global().size(); }

}  // namespace perfbench::api
