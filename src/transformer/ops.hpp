// Elementwise / normalization / attention-matmul operators.
//
// Activations flow as HalfMatrix with shape (features x tokens): the
// token dimension lies along columns, so a linear layer is exactly the
// paper's SpMM (sparse weight R x K times dense activation K x C).
#pragma once

#include "tensor/matrix.hpp"

namespace venom::transformer {

/// Row-wise softmax in place (each row is one attention query's scores).
void softmax_rows(FloatMatrix& scores);

/// LayerNorm over the feature dimension of (features x tokens), per
/// token (column), with scale gamma and shift beta (size = features).
HalfMatrix layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                      std::span<const float> beta, float eps = 1e-5f);

/// GELU (tanh approximation) applied element-wise.
HalfMatrix gelu(const HalfMatrix& x);

/// x + y element-wise (residual connection).
HalfMatrix add(const HalfMatrix& x, const HalfMatrix& y);

/// Adds a per-feature bias to (features x tokens).
void add_bias(FloatMatrix& x, std::span<const float> bias);

/// scores(Tq x Tk) = Qh^T Kh * scale, with Qh, Kh of shape (dh x T).
FloatMatrix attention_scores(const HalfMatrix& qh, const HalfMatrix& kh,
                             float scale);

/// context(dh x Tq) = Vh * P^T, with P(Tq x Tk) probabilities, Vh(dh x Tk).
HalfMatrix attention_context(const FloatMatrix& p, const HalfMatrix& vh);

/// Allocation-free variants for the decode hot path: same kernels (so the
/// results are bit-identical to the value-returning forms above), but
/// the output is resized into a caller-retained buffer — a reused
/// scratch matrix settles at its high-water size and the steady-state
/// single-token decode step performs no heap allocation here.
void attention_scores_into(const HalfMatrix& qh, const HalfMatrix& kh,
                           float scale, FloatMatrix& out);
void attention_context_into(const FloatMatrix& p, const HalfMatrix& vh,
                            HalfMatrix& out);

// ----------------------------------------------------- reference oracles
//
// The scalar loops the fast ops above replaced, kept as their oracles
// (the spmm_vnm_reference precedent). Each fast op converts fp16 panels
// in bulk and vectorizes across its output index, but every output keeps
// the oracle's reduction order, so fast and reference agree bit for bit
// on every input and build:
//   attention_scores    ascending d per score
//   attention_context   ascending key j per context element
//   layer_norm          ascending feature per token statistic
//   gelu, add           element-wise (std::tanh in both)

FloatMatrix attention_scores_reference(const HalfMatrix& qh,
                                       const HalfMatrix& kh, float scale);
HalfMatrix attention_context_reference(const FloatMatrix& p,
                                       const HalfMatrix& vh);
HalfMatrix layer_norm_reference(const HalfMatrix& x,
                                std::span<const float> gamma,
                                std::span<const float> beta,
                                float eps = 1e-5f);
HalfMatrix gelu_reference(const HalfMatrix& x);
HalfMatrix add_reference(const HalfMatrix& x, const HalfMatrix& y);

// ------------------------------------------------------------- backward
//
// Gradients of the elementwise / normalization operators above, for the
// sparse-training loop (fp32 gradient domain; the forward's fp16
// rounding is treated as identity, the standard mixed-precision
// convention).

/// x + y element-wise over fp32 gradients.
FloatMatrix add(const FloatMatrix& x, const FloatMatrix& y);

/// Backward of layer_norm over the *pre-normalization* input `x`: given
/// upstream dL/dy, returns dL/dx and accumulates dL/dgamma and dL/dbeta
/// (both size = features; callers zero them first).
FloatMatrix layer_norm_backward(const HalfMatrix& x,
                                std::span<const float> gamma,
                                const FloatMatrix& grad_y,
                                std::span<float> dgamma,
                                std::span<float> dbeta, float eps = 1e-5f);

/// Backward of the tanh-approximated GELU: dL/dx = dL/dy * gelu'(x).
FloatMatrix gelu_backward(const HalfMatrix& x, const FloatMatrix& grad_y);

}  // namespace venom::transformer
