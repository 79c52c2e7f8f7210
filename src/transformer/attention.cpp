#include "transformer/attention.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "ops/ops.hpp"
#include "transformer/attention_core.hpp"
#include "transformer/kv_cache.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {

namespace {

/// Copies head h (rows [h*dh, (h+1)*dh)), columns [t0, t1), out of a
/// (hidden x T) matrix.
HalfMatrix slice_head(const HalfMatrix& x, std::size_t h, std::size_t dh,
                      std::size_t t0, std::size_t t1) {
  HalfMatrix out(dh, t1 - t0);
  for (std::size_t d = 0; d < dh; ++d)
    for (std::size_t t = t0; t < t1; ++t)
      out(d, t - t0) = x(h * dh + d, t);
  return out;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(std::size_t hidden, std::size_t heads,
                                       Rng& rng, bool causal)
    : hidden_(hidden), heads_(heads), causal_(causal),
      wq_(Linear::random(hidden, hidden, rng)),
      wk_(Linear::random(hidden, hidden, rng)),
      wv_(Linear::random(hidden, hidden, rng)),
      wo_(Linear::random(hidden, hidden, rng)) {
  VENOM_CHECK_MSG(hidden % heads == 0, "hidden " << hidden
                                                 << " not divisible by heads "
                                                 << heads);
}

void MultiHeadAttention::sparsify(VnmConfig cfg) {
  wq_.sparsify(cfg);
  wk_.sparsify(cfg);
  wv_.sparsify(cfg);
  wo_.sparsify(cfg);
}

void MultiHeadAttention::set_dynamic_score_sparsity(
    std::optional<NmPattern> pattern) {
  if (pattern.has_value()) {
    VENOM_CHECK_MSG((pattern->n == 2 && pattern->m == 4) ||
                        (pattern->n == 1 && pattern->m == 2),
                    "dynamic attention supports the hardware patterns 2:4 "
                    "and 1:2, got "
                        << pattern->n << ':' << pattern->m);
  }
  score_pattern_ = pattern;
}

namespace {

/// DFSS-style dynamic pruning: keeps the N largest probabilities per
/// group of M and renormalizes each row to unit mass. Returns the pruned
/// probabilities as an N:M compressed matrix.
NmMatrix prune_probabilities(const FloatMatrix& p, NmPattern pattern) {
  VENOM_CHECK_MSG(p.cols() % pattern.m == 0,
                  "sequence length " << p.cols() << " not divisible by M="
                                     << pattern.m);
  HalfMatrix pruned(p.rows(), p.cols());
  for (std::size_t i = 0; i < p.rows(); ++i) {
    // Select per group; probabilities are non-negative so magnitude
    // selection is just "largest".
    for (std::size_t g = 0; g < p.cols() / pattern.m; ++g) {
      // Insertion-select the top n of the group (n is 1 or 2).
      std::size_t best = g * pattern.m;
      for (std::size_t c = 1; c < pattern.m; ++c)
        if (p(i, g * pattern.m + c) > p(i, best)) best = g * pattern.m + c;
      pruned(i, best) = half_t(p(i, best));
      if (pattern.n == 2) {
        std::size_t second = best == g * pattern.m ? g * pattern.m + 1
                                                   : g * pattern.m;
        for (std::size_t c = 0; c < pattern.m; ++c) {
          const std::size_t col = g * pattern.m + c;
          if (col != best && p(i, col) > p(i, second)) second = col;
        }
        pruned(i, second) = half_t(p(i, second));
      }
    }
    // Renormalize the surviving mass.
    float sum = 0.0f;
    for (std::size_t c = 0; c < p.cols(); ++c)
      sum += pruned(i, c).to_float();
    if (sum > 0.0f) {
      const float inv = 1.0f / sum;
      for (std::size_t c = 0; c < p.cols(); ++c)
        if (!pruned(i, c).is_zero())
          pruned(i, c) = half_t(pruned(i, c).to_float() * inv);
    }
  }
  return NmMatrix::compress(pruned, pattern);
}

}  // namespace

HalfMatrix MultiHeadAttention::forward(const HalfMatrix& x,
                                       ops::ExecContext* ctx) const {
  return forward_batched(x, std::array{x.cols()}, ctx);
}

HalfMatrix MultiHeadAttention::forward_batched(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    ops::ExecContext* ctx) const {
  return forward_impl(x, seq_ends, std::nullopt, 0, ctx);
}

HalfMatrix MultiHeadAttention::forward_cached(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    std::span<KvCache* const> caches, std::size_t layer,
    ops::ExecContext* ctx) const {
  return forward_impl(x, seq_ends, caches, layer, ctx);
}

HalfMatrix MultiHeadAttention::forward_impl(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    std::optional<std::span<KvCache* const>> caches, std::size_t layer,
    ops::ExecContext* ctx) const {
  VENOM_CHECK(x.rows() == hidden_);
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == x.cols(),
                  "sequence ends must cover all " << x.cols() << " tokens");
  if (caches.has_value()) {
    VENOM_CHECK_MSG(causal_, "forward_cached requires a causal attention "
                             "block (a KV cache is a decode structure)");
    VENOM_CHECK_MSG(!score_pattern_.has_value(),
                    "dynamic N:M attention is incompatible with a KV cache "
                    "(pruning depends on the whole probability row)");
    VENOM_CHECK_MSG(caches->size() == seq_ends.size(),
                    "one KvCache per sequence: got " << caches->size()
                                                     << " caches for "
                                                     << seq_ends.size()
                                                     << " sequences");
    std::size_t s0 = 0;
    for (std::size_t s = 0; s < seq_ends.size(); ++s) {
      VENOM_CHECK_MSG((*caches)[s] != nullptr,
                      "null KvCache for sequence " << s);
      const KvCache& cache = *(*caches)[s];
      VENOM_CHECK_MSG(attn_window_ == 0 || cache.capacity() == attn_window_,
                      "attention window " << attn_window_
                                          << " != KvCache capacity "
                                          << cache.capacity()
                                          << " (the ring must hold exactly "
                                             "the window)");
      VENOM_CHECK_MSG(seq_ends[s] > s0,
                      "sequence ends must be strictly increasing");
      VENOM_CHECK_MSG(attn_window_ != 0 ||
                          cache.layer_length(layer) + (seq_ends[s] - s0) <=
                              cache.capacity(),
                      "KV cache overflow at position "
                          << cache.capacity() << " (capacity "
                          << cache.capacity()
                          << "): set an attention window to serve "
                             "sequences longer than the ring");
      s0 = seq_ends[s];
    }
  } else if (x.cols() == 0) {
    // Zero tokens: attention over nothing is nothing. (A cached call has
    // already been rejected above: a chunk is at least one token.)
    return HalfMatrix(hidden_, 0);
  }
  ops::ExecContext& ectx = ops::resolve(ctx);

  // The projections are token-wise: one SpMM over the whole packed batch
  // (the weight-stationary reuse serving is after). Every output column
  // depends only on its own input column, so per-sequence bits match the
  // unbatched pass.
  const HalfMatrix q = wq_.forward(x, ctx);
  const HalfMatrix k = wk_.forward(x, ctx);
  const HalfMatrix v = wv_.forward(x, ctx);
  // With rings, each query attends to its ring's resident window followed
  // by its own chunk's columns up to itself: exactly the sliding-window
  // causal mask of the full forward.
  const AttentionCoreArgs args{
      .q = q, .k = k, .v = v, .seq_ends = seq_ends, .heads = heads_,
      .mask = mask(), .caches = caches.value_or(std::span<KvCache* const>{}),
      .layer = layer};

  HalfMatrix context;
  if (!score_pattern_.has_value()) {
    attention_core(args, {.context = &context}, ectx);
  } else {
    // Dynamic N:M attention: the core's probabilities are pruned per
    // (head, sequence) and context^T = P_nm * V^T is dispatched through
    // the ops layer, which selects the register-blocked N:M fast path
    // (bit-identical to the spmm_24 baseline).
    std::vector<FloatMatrix> probs;
    attention_core(args, {.probs = &probs}, ectx);
    const std::size_t dh = hidden_ / heads_;
    context.resize(hidden_, x.cols());
    std::size_t pi = 0;
    for (std::size_t h = 0; h < heads_; ++h) {
      std::size_t s0 = 0;
      for (const std::size_t s1 : seq_ends) {
        const NmMatrix p_nm =
            prune_probabilities(probs[pi++], *score_pattern_);
        const HalfMatrix vt = transpose(slice_head(v, h, dh, s0, s1));
        const FloatMatrix ctx_t =
            ops::matmul(ops::MatmulArgs::make(p_nm, vt), ectx);
        for (std::size_t d = 0; d < dh; ++d)
          for (std::size_t t = s0; t < s1; ++t)
            context(h * dh + d, t) = half_t(ctx_t(t - s0, d));
        s0 = s1;
      }
    }
  }

  // Only now does each chunk enter its ring: appending before the core
  // ran would overwrite keys the chunk's early queries still see once
  // the ring is full.
  if (caches.has_value()) {
    std::size_t s0 = 0;
    for (std::size_t s = 0; s < seq_ends.size(); ++s) {
      for (std::size_t t = s0; t < seq_ends[s]; ++t)
        (*caches)[s]->append(layer, k, v, t);
      s0 = seq_ends[s];
    }
  }
  return wo_.forward(context, ctx);
}

FloatMatrix MultiHeadAttention::backward(const HalfMatrix& x,
                                         const FloatMatrix& grad_out,
                                         MhaGrads* grads) const {
  const std::size_t end = x.cols();
  return backward_batched(x, std::span<const std::size_t>(&end, 1), grad_out,
                          grads);
}

FloatMatrix MultiHeadAttention::backward_batched(
    const HalfMatrix& x, std::span<const std::size_t> seq_ends,
    const FloatMatrix& grad_out, MhaGrads* grads) const {
  VENOM_CHECK(x.rows() == hidden_);
  VENOM_CHECK(grad_out.rows() == hidden_ && grad_out.cols() == x.cols());
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == x.cols(),
                  "sequence ends must cover all " << x.cols() << " tokens");
  VENOM_CHECK_MSG(!score_pattern_.has_value(),
                  "dynamic N:M attention has no backward (the top-N "
                  "selection is not differentiable)");
  const std::size_t dh = hidden_ / heads_;
  const float scale = 1.0f / std::sqrt(float(dh));
  MhaGrads local;
  MhaGrads& g = grads != nullptr ? *grads : local;

  // Recompute the projections (activation recomputation), then the
  // per-(head, sequence) probability matrices and the packed context —
  // the context is wo's forward input, which its backward needs.
  const HalfMatrix q = wq_.forward(x);
  const HalfMatrix k = wk_.forward(x);
  const HalfMatrix v = wv_.forward(x);

  std::vector<FloatMatrix> probs;  // one per (head, sequence), pass order
  HalfMatrix context;
  attention_core({.q = q, .k = k, .v = v, .seq_ends = seq_ends,
                  .heads = heads_, .mask = mask()},
                 {.context = &context, .probs = &probs},
                 ops::ExecContext::global());

  // Output projection backward: grad_context flows into the per-head
  // attention backward below.
  g.wo = wo_.backward(context, grad_out);
  const FloatMatrix& grad_context = g.wo.input;

  FloatMatrix grad_q(hidden_, x.cols());
  FloatMatrix grad_k(hidden_, x.cols());
  FloatMatrix grad_v(hidden_, x.cols());
  std::size_t pi = 0;
  for (std::size_t h = 0; h < heads_; ++h) {
    std::size_t s0 = 0;
    for (const std::size_t s1 : seq_ends) {
      const std::size_t ts = s1 - s0;
      const HalfMatrix qh = slice_head(q, h, dh, s0, s1);
      const HalfMatrix kh = slice_head(k, h, dh, s0, s1);
      const HalfMatrix vh = slice_head(v, h, dh, s0, s1);
      const FloatMatrix& p = probs[pi++];

      // ctx(d, i) = sum_j P(i, j) V(d, j):
      //   dL/dP(i, j) = sum_d gctx(d, i) V(d, j)
      //   dL/dV(d, j) = sum_i gctx(d, i) P(i, j)
      FloatMatrix grad_p(ts, ts);
      for (std::size_t i = 0; i < ts; ++i)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t d = 0; d < dh; ++d)
            acc += grad_context(h * dh + d, s0 + i) * vh(d, j).to_float();
          grad_p(i, j) = acc;
        }
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < ts; ++i)
            acc += grad_context(h * dh + d, s0 + i) * p(i, j);
          grad_v(h * dh + d, s0 + j) += acc;
        }

      // Softmax backward per query row: dS = P ⊙ (dP − <dP, P>). Masked
      // (causal) entries carry P = 0, so their gradient vanishes without
      // special-casing.
      FloatMatrix grad_s(ts, ts);
      for (std::size_t i = 0; i < ts; ++i) {
        float dot = 0.0f;
        for (std::size_t j = 0; j < ts; ++j) dot += grad_p(i, j) * p(i, j);
        for (std::size_t j = 0; j < ts; ++j)
          grad_s(i, j) = p(i, j) * (grad_p(i, j) - dot);
      }

      // scores(i, j) = scale * sum_d q(d, i) k(d, j):
      //   dL/dq(d, i) = scale * sum_j dS(i, j) k(d, j)
      //   dL/dk(d, j) = scale * sum_i dS(i, j) q(d, i)
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t i = 0; i < ts; ++i) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < ts; ++j)
            acc += grad_s(i, j) * kh(d, j).to_float();
          grad_q(h * dh + d, s0 + i) += scale * acc;
        }
      for (std::size_t d = 0; d < dh; ++d)
        for (std::size_t j = 0; j < ts; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < ts; ++i)
            acc += grad_s(i, j) * qh(d, i).to_float();
          grad_k(h * dh + d, s0 + j) += scale * acc;
        }
      s0 = s1;
    }
  }

  // Projection backwards (sparse ops when the projections are pruned);
  // the input gradient sums the three branches that consume x.
  g.wq = wq_.backward(x, grad_q);
  g.wk = wk_.backward(x, grad_k);
  g.wv = wv_.backward(x, grad_v);
  FloatMatrix grad_x = add(add(g.wq.input, g.wk.input), g.wv.input);
  return grad_x;
}

void MultiHeadAttention::apply_gradients(const MhaGrads& g, float lr) {
  wq_.apply_gradients(g.wq, lr);
  wk_.apply_gradients(g.wk, lr);
  wv_.apply_gradients(g.wv, lr);
  wo_.apply_gradients(g.wo, lr);
}

}  // namespace venom::transformer
