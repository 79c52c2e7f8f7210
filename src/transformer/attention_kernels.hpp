// Internal row kernels shared by the public attention ops (ops.cpp) and
// the multi-head attention core (attention_core.cpp). Not public API.
//
// Both matmuls of attention read fp32 panels converted from fp16 once per
// call or tile (half_to_float_n for keys, half_to_float_transposed for
// values), never per multiply-add, and vectorize
// across the OUTPUT index while each output keeps the scalar reduction
// order of the *_reference oracles in ops.hpp:
//
//   score_row     out[j] = scale * sum_d q[d] k[d][j]   ascending d, across j
//   context_row   out[d] += sum_j p[j] vt[j][d]         ascending j, across d
//
// The strips are plain C++ over fixed-width local arrays, as in
// spatha/microkernel.hpp: the compiler contracts `acc[u] += a * b[u]`
// exactly as it contracts the scalar `acc += a * b` of the oracle (an FMA
// under -march=native, mul+add on a build without FMA), so each output is
// bit-identical to the oracle on every build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace venom::transformer::detail {

/// Strip width: 16 floats, two ymm registers. The wide strips run four of
/// them at once (eight independent accumulators, enough to cover the FMA
/// latency); `#pragma GCC unroll` keeps the four in registers. A last
/// strip of < 16 outputs runs runtime-bounded.
constexpr std::size_t kStrip = 16;
constexpr std::size_t kWide = 4;

template <std::size_t N>
inline void score_strips(const float* q, std::size_t q_stride, const float* k,
                         std::size_t ldk, std::size_t dh, float scale,
                         float* out) {
  float acc[N][kStrip] = {};
  for (std::size_t d = 0; d < dh; ++d) {
    const float qv = q[d * q_stride];
    const float* kp = k + d * ldk;
#pragma GCC unroll 4
    for (std::size_t b = 0; b < N; ++b)
      for (std::size_t u = 0; u < kStrip; ++u)
        acc[b][u] += qv * kp[b * kStrip + u];
  }
#pragma GCC unroll 4
  for (std::size_t b = 0; b < N; ++b)
    for (std::size_t u = 0; u < kStrip; ++u)
      out[b * kStrip + u] = acc[b][u] * scale;
}

/// out[j] = scale * sum_{d < dh} q[d * q_stride] * k[d * ldk + j] for
/// j in [0, n).
inline void score_row(const float* q, std::size_t q_stride, const float* k,
                      std::size_t ldk, std::size_t dh, std::size_t n,
                      float scale, float* out) {
  std::size_t j = 0;
  for (; j + kWide * kStrip <= n; j += kWide * kStrip)
    score_strips<kWide>(q, q_stride, k + j, ldk, dh, scale, out + j);
  for (; j + kStrip <= n; j += kStrip)
    score_strips<1>(q, q_stride, k + j, ldk, dh, scale, out + j);
  if (j < n) {
    const std::size_t rem = n - j;
    float acc[kStrip] = {};
    for (std::size_t d = 0; d < dh; ++d) {
      const float qv = q[d * q_stride];
      const float* kp = k + d * ldk + j;
      for (std::size_t u = 0; u < rem; ++u) acc[u] += qv * kp[u];
    }
    for (std::size_t u = 0; u < rem; ++u) out[j + u] = acc[u] * scale;
  }
}

template <std::size_t N>
inline void context_strips(const float* p, std::size_t n, const float* vt,
                           std::size_t ldv, float* out) {
  float acc[N][kStrip];
#pragma GCC unroll 4
  for (std::size_t b = 0; b < N; ++b)
    for (std::size_t u = 0; u < kStrip; ++u) acc[b][u] = out[b * kStrip + u];
  for (std::size_t j = 0; j < n; ++j) {
    const float pv = p[j];
    const float* vp = vt + j * ldv;
#pragma GCC unroll 4
    for (std::size_t b = 0; b < N; ++b)
      for (std::size_t u = 0; u < kStrip; ++u)
        acc[b][u] += pv * vp[b * kStrip + u];
  }
#pragma GCC unroll 4
  for (std::size_t b = 0; b < N; ++b)
    for (std::size_t u = 0; u < kStrip; ++u) out[b * kStrip + u] = acc[b][u];
}

/// out[d] += sum_{j < n} p[j] * vt[j * ldv + d] for d in [0, dh), each
/// sum in ascending j on top of out[d] — so keys split over consecutive
/// calls accumulate exactly as in one call (callers zero `out` first).
inline void context_row(const float* p, std::size_t n, const float* vt,
                        std::size_t ldv, std::size_t dh, float* out) {
  std::size_t d = 0;
  for (; d + kWide * kStrip <= dh; d += kWide * kStrip)
    context_strips<kWide>(p, n, vt + d, ldv, out + d);
  for (; d + kStrip <= dh; d += kStrip)
    context_strips<1>(p, n, vt + d, ldv, out + d);
  if (d < dh) {
    const std::size_t rem = dh - d;
    float acc[kStrip] = {};
    for (std::size_t u = 0; u < rem; ++u) acc[u] = out[d + u];
    for (std::size_t j = 0; j < n; ++j) {
      const float pv = p[j];
      const float* vp = vt + j * ldv + d;
      for (std::size_t u = 0; u < rem; ++u) acc[u] += pv * vp[u];
    }
    for (std::size_t u = 0; u < rem; ++u) out[d + u] = acc[u];
  }
}

/// Softmax of row[0, n) in place: one row of softmax_rows.
inline void softmax_row(float* row, std::size_t n) {
  if (n == 0) return;
  const float mx = *std::max_element(row, row + n);
  float sum = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    sum += row[j];
  }
  const float inv = 1.0f / sum;
  for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
}

}  // namespace venom::transformer::detail
