#include "transformer/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "transformer/attention_kernels.hpp"

namespace venom::transformer {

namespace {

/// Elements per converted block of the token-wise ops: 1 KiB of floats per
/// operand stays in L1 and bounds the stack scratch.
constexpr std::size_t kBlock = 256;

/// Per-thread float panels for the attention ops and layer_norm: they
/// settle at their high-water size, so steady-state calls allocate nothing
/// here.
struct OpScratch {
  std::vector<float> a, b, row;
};

OpScratch& op_scratch() {
  thread_local OpScratch s;
  return s;
}

float gelu_value(float v) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const float t = std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v));
  return 0.5f * v * (1.0f + t);
}

}  // namespace

void softmax_rows(FloatMatrix& scores) {
  for (std::size_t r = 0; r < scores.rows(); ++r)
    detail::softmax_row(scores.row(r).data(), scores.cols());
}

HalfMatrix layer_norm(const HalfMatrix& x, std::span<const float> gamma,
                      std::span<const float> beta, float eps) {
  VENOM_CHECK(gamma.size() == x.rows() && beta.size() == x.rows());
  // Vectorized across a strip of tokens: each token's statistics still
  // reduce over the features in ascending order, as in the reference.
  constexpr std::size_t kTok = 16;
  const std::size_t features = x.rows();
  HalfMatrix out(features, x.cols());
  std::vector<float>& buf = op_scratch().a;
  buf.resize(features * kTok);
  for (std::size_t t0 = 0; t0 < x.cols(); t0 += kTok) {
    const std::size_t w = std::min(kTok, x.cols() - t0);
    for (std::size_t f = 0; f < features; ++f)
      half_to_float_n(&x(f, t0), &buf[f * kTok], w);
    float mean[kTok] = {}, var[kTok] = {}, inv[kTok];
    for (std::size_t f = 0; f < features; ++f)
      for (std::size_t u = 0; u < kTok; ++u) mean[u] += buf[f * kTok + u];
    for (std::size_t u = 0; u < kTok; ++u) mean[u] /= float(features);
    for (std::size_t f = 0; f < features; ++f)
      for (std::size_t u = 0; u < kTok; ++u) {
        const float d = buf[f * kTok + u] - mean[u];
        var[u] += d * d;
      }
    for (std::size_t u = 0; u < kTok; ++u) {
      var[u] /= float(features);
      inv[u] = 1.0f / std::sqrt(var[u] + eps);
    }
    for (std::size_t f = 0; f < features; ++f) {
      float* row = &buf[f * kTok];
      for (std::size_t u = 0; u < kTok; ++u)
        row[u] = (row[u] - mean[u]) * inv[u] * gamma[f] + beta[f];
      float_to_half_n(row, &out(f, t0), w);
    }
  }
  return out;
}

HalfMatrix layer_norm_reference(const HalfMatrix& x,
                                std::span<const float> gamma,
                                std::span<const float> beta, float eps) {
  VENOM_CHECK(gamma.size() == x.rows() && beta.size() == x.rows());
  HalfMatrix out(x.rows(), x.cols());
  for (std::size_t t = 0; t < x.cols(); ++t) {
    float mean = 0.0f;
    for (std::size_t f = 0; f < x.rows(); ++f) mean += x(f, t).to_float();
    mean /= float(x.rows());
    float var = 0.0f;
    for (std::size_t f = 0; f < x.rows(); ++f) {
      const float d = x(f, t).to_float() - mean;
      var += d * d;
    }
    var /= float(x.rows());
    const float inv = 1.0f / std::sqrt(var + eps);
    for (std::size_t f = 0; f < x.rows(); ++f)
      out(f, t) = half_t((x(f, t).to_float() - mean) * inv * gamma[f] +
                         beta[f]);
  }
  return out;
}

HalfMatrix gelu(const HalfMatrix& x) {
  HalfMatrix out(x.rows(), x.cols());
  float buf[kBlock];
  for (std::size_t i = 0; i < x.size(); i += kBlock) {
    const std::size_t n = std::min(kBlock, x.size() - i);
    half_to_float_n(x.data() + i, buf, n);
    for (std::size_t e = 0; e < n; ++e) buf[e] = gelu_value(buf[e]);
    float_to_half_n(buf, out.data() + i, n);
  }
  return out;
}

HalfMatrix gelu_reference(const HalfMatrix& x) {
  HalfMatrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.flat()[i] = half_t(gelu_value(x.flat()[i].to_float()));
  return out;
}

HalfMatrix add(const HalfMatrix& x, const HalfMatrix& y) {
  VENOM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  HalfMatrix out(x.rows(), x.cols());
  float a[kBlock], b[kBlock];
  for (std::size_t i = 0; i < x.size(); i += kBlock) {
    const std::size_t n = std::min(kBlock, x.size() - i);
    half_to_float_n(x.data() + i, a, n);
    half_to_float_n(y.data() + i, b, n);
    for (std::size_t e = 0; e < n; ++e) a[e] += b[e];
    float_to_half_n(a, out.data() + i, n);
  }
  return out;
}

HalfMatrix add_reference(const HalfMatrix& x, const HalfMatrix& y) {
  VENOM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  HalfMatrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.flat()[i] = x.flat()[i] + y.flat()[i];
  return out;
}

void add_bias(FloatMatrix& x, std::span<const float> bias) {
  VENOM_CHECK(bias.size() == x.rows());
  for (std::size_t f = 0; f < x.rows(); ++f)
    for (std::size_t t = 0; t < x.cols(); ++t) x(f, t) += bias[f];
}

FloatMatrix attention_scores(const HalfMatrix& qh, const HalfMatrix& kh,
                             float scale) {
  FloatMatrix scores;
  attention_scores_into(qh, kh, scale, scores);
  return scores;
}

void attention_scores_into(const HalfMatrix& qh, const HalfMatrix& kh,
                           float scale, FloatMatrix& scores) {
  VENOM_CHECK(qh.rows() == kh.rows());
  const std::size_t dh = qh.rows(), tq = qh.cols(), tk = kh.cols();
  scores.resize(tq, tk);
  // Both panels are converted once per call; the Q panel keeps Q's
  // (d, i) layout, so query i reads its features at stride tq.
  OpScratch& s = op_scratch();
  s.a.resize(dh * tq);
  s.b.resize(dh * tk);
  half_to_float_n(qh.data(), s.a.data(), dh * tq);
  half_to_float_n(kh.data(), s.b.data(), dh * tk);
  for (std::size_t i = 0; i < tq; ++i)
    detail::score_row(s.a.data() + i, tq, s.b.data(), tk, dh, tk, scale,
                      scores.data() + i * tk);
}

FloatMatrix attention_scores_reference(const HalfMatrix& qh,
                                       const HalfMatrix& kh, float scale) {
  VENOM_CHECK(qh.rows() == kh.rows());
  FloatMatrix scores(qh.cols(), kh.cols());
  for (std::size_t i = 0; i < qh.cols(); ++i)
    for (std::size_t j = 0; j < kh.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < qh.rows(); ++d)
        acc += qh(d, i).to_float() * kh(d, j).to_float();
      scores(i, j) = acc * scale;
    }
  return scores;
}

FloatMatrix add(const FloatMatrix& x, const FloatMatrix& y) {
  VENOM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  FloatMatrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.flat()[i] = x.flat()[i] + y.flat()[i];
  return out;
}

FloatMatrix layer_norm_backward(const HalfMatrix& x,
                                std::span<const float> gamma,
                                const FloatMatrix& grad_y,
                                std::span<float> dgamma,
                                std::span<float> dbeta, float eps) {
  const std::size_t features = x.rows();
  VENOM_CHECK(gamma.size() == features && dgamma.size() == features &&
              dbeta.size() == features);
  VENOM_CHECK(grad_y.rows() == features && grad_y.cols() == x.cols());
  FloatMatrix dx(features, x.cols());
  const float inv_f = 1.0f / float(features);
  std::vector<float> xhat(features), dyh(features);
  for (std::size_t t = 0; t < x.cols(); ++t) {
    // Recompute the per-token statistics exactly as the forward does.
    float mean = 0.0f;
    for (std::size_t f = 0; f < features; ++f) mean += x(f, t).to_float();
    mean *= inv_f;
    float var = 0.0f;
    for (std::size_t f = 0; f < features; ++f) {
      const float d = x(f, t).to_float() - mean;
      var += d * d;
    }
    var *= inv_f;
    const float inv = 1.0f / std::sqrt(var + eps);

    // dL/dxhat = dL/dy * gamma; then the two projection terms that make
    // the normalization's Jacobian: subtract the mean of dL/dxhat and
    // the xhat-weighted mean along the feature axis.
    float mean_dyh = 0.0f, mean_dyh_xhat = 0.0f;
    for (std::size_t f = 0; f < features; ++f) {
      xhat[f] = (x(f, t).to_float() - mean) * inv;
      dyh[f] = grad_y(f, t) * gamma[f];
      dgamma[f] += grad_y(f, t) * xhat[f];
      dbeta[f] += grad_y(f, t);
      mean_dyh += dyh[f];
      mean_dyh_xhat += dyh[f] * xhat[f];
    }
    mean_dyh *= inv_f;
    mean_dyh_xhat *= inv_f;
    for (std::size_t f = 0; f < features; ++f)
      dx(f, t) = inv * (dyh[f] - mean_dyh - xhat[f] * mean_dyh_xhat);
  }
  return dx;
}

FloatMatrix gelu_backward(const HalfMatrix& x, const FloatMatrix& grad_y) {
  VENOM_CHECK(grad_y.rows() == x.rows() && grad_y.cols() == x.cols());
  FloatMatrix dx(x.rows(), x.cols());
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kCubic = 0.044715f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.flat()[i].to_float();
    const float u = kSqrt2OverPi * (v + kCubic * v * v * v);
    const float t = std::tanh(u);
    const float du = kSqrt2OverPi * (1.0f + 3.0f * kCubic * v * v);
    const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dx.flat()[i] = grad_y.flat()[i] * d;
  }
  return dx;
}

HalfMatrix attention_context(const FloatMatrix& p, const HalfMatrix& vh) {
  HalfMatrix ctx;
  attention_context_into(p, vh, ctx);
  return ctx;
}

void attention_context_into(const FloatMatrix& p, const HalfMatrix& vh,
                            HalfMatrix& ctx) {
  VENOM_CHECK(p.cols() == vh.cols());
  const std::size_t dh = vh.rows(), tq = p.rows(), tk = p.cols();
  ctx.resize(dh, tq);
  // V is converted once per call into its transpose vt(j, d), so the
  // context of one query is a run of d-contiguous strips.
  OpScratch& s = op_scratch();
  s.a.resize(tk * dh);
  s.row.resize(dh);
  half_to_float_transposed(vh.data(), tk, dh, tk, s.a.data());
  for (std::size_t i = 0; i < tq; ++i) {
    std::fill(s.row.begin(), s.row.end(), 0.0f);
    detail::context_row(p.data() + i * tk, tk, s.a.data(), dh, dh,
                        s.row.data());
    for (std::size_t d = 0; d < dh; ++d) ctx(d, i) = half_t(s.row[d]);
  }
}

HalfMatrix attention_context_reference(const FloatMatrix& p,
                                       const HalfMatrix& vh) {
  VENOM_CHECK(p.cols() == vh.cols());
  HalfMatrix ctx(vh.rows(), p.rows());
  for (std::size_t d = 0; d < vh.rows(); ++d)
    for (std::size_t i = 0; i < p.rows(); ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < p.cols(); ++j)
        acc += p(i, j) * vh(d, j).to_float();
      ctx(d, i) = half_t(acc);
    }
  return ctx;
}

}  // namespace venom::transformer
