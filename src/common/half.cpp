#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

// The bulk converters use F16C (VCVTPH2PS / VCVTPS2PH) when the compiler
// targets it; define VENOM_NO_F16C to force the portable path even then.
#if defined(__F16C__) && !defined(VENOM_NO_F16C)
#define VENOM_USE_F16C 1
#include <immintrin.h>
#endif

namespace venom {

namespace {

std::uint32_t as_u32(float f) { return std::bit_cast<std::uint32_t>(f); }
float as_f32(std::uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

std::uint16_t half_t::float_to_bits(float f) {
  const std::uint32_t x = as_u32(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness with a quiet NaN payload bit.
    if (abs > 0x7f800000u) return static_cast<std::uint16_t>(sign | 0x7e00u);
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a value >= 65520 -> overflows to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero): result = round(value / 2^-24).
    // abs <= 2^-25 (0x33000000) rounds to zero (the tie goes to even 0).
    if (abs <= 0x33000000u) return static_cast<std::uint16_t>(sign);
    const int exp = static_cast<int>(abs >> 23);        // in [102, 112]
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    const int drop = 126 - exp;                         // in [14, 24]
    const std::uint32_t kept = drop >= 24 ? 0u : mant >> drop;
    const std::uint32_t rem = mant & ((1u << drop) - 1u);
    const std::uint32_t half_ulp = 1u << (drop - 1);
    std::uint32_t result = kept;
    if (rem > half_ulp || (rem == half_ulp && (kept & 1u))) ++result;
    // Rounding may carry into the smallest normal (0x0400) — still correct.
    return static_cast<std::uint16_t>(sign | result);
  }
  // Normal half. Re-bias the exponent and round the mantissa.
  const std::uint32_t rebased = abs - 0x38000000u;  // bias 127 -> 15
  const std::uint32_t kept = rebased >> 13;
  const std::uint32_t rem = rebased & 0x1fffu;
  std::uint32_t result = kept;
  if (rem > 0x1000u || (rem == 0x1000u && (kept & 1u))) ++result;
  return static_cast<std::uint16_t>(sign | result);
}

float half_t::bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;

  if (exp == 0) {
    if (mant == 0) return as_f32(sign);  // ±0
    // Subnormal: value = mant * 2^-24. Normalize into a float.
    const float scale = as_f32(0x33800000u);  // 2^-24
    const float v = static_cast<float>(mant) * scale;
    return as_f32(sign | as_u32(v));
  }
  if (exp == 0x1f) {
    if (mant == 0) return as_f32(sign | 0x7f800000u);        // ±inf
    return as_f32(sign | 0x7fc00000u | (mant << 13));        // NaN
  }
  // Normal: re-bias exponent 15 -> 127.
  return as_f32(sign | ((exp + 112) << 23) | (mant << 13));
}

namespace {

/// Exact binary16 -> float, inline (the bulk converters' scalar path):
/// select-based so loops can if-convert. Normals rescale exactly via
/// 2^112 with no denormal float intermediate; zeros/subnormals go through
/// an exact integer * 2^-24 product (immune to DAZ/FTZ, unlike an
/// em<<13 denormal intermediate).
inline float widen(half_t x) {
  const std::uint32_t h = x.bits();
  const std::uint32_t sign = (h & 0x8000u) << 16;
  const std::uint32_t em = h & 0x7fffu;
  std::uint32_t bits;
  if (em >= 0x7c00u)
    bits = (em & 0x3ffu) == 0 ? 0x7f800000u
                              : 0x7fc00000u | ((em & 0x3ffu) << 13);
  else if (em < 0x0400u)
    bits = as_u32(static_cast<float>(em) * 0x1p-24f);
  else
    bits = as_u32(as_f32(em << 13) * 0x1p112f);
  return as_f32(sign | bits);
}

#ifdef VENOM_USE_F16C
/// In-register transpose of the 8 x 8 block held in v[0..7] (row k of the
/// result is column k of the input).
inline void transpose8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}
#endif

}  // namespace

void half_to_float_n(const half_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
#ifdef VENOM_USE_F16C
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) dst[i] = widen(src[i]);
#ifdef VENOM_USE_F16C
  _mm256_zeroupper();  // see float_to_half_n
#endif
}

void half_to_float_transposed(const half_t* src, std::size_t ld,
                              std::size_t rows, std::size_t cols,
                              float* dst) {
  std::size_t r0 = 0;
#ifdef VENOM_USE_F16C
  // 8 x 8 blocks: eight row loads widened by VCVTPH2PS, an in-register
  // transpose, eight column stores.
  for (; r0 + 8 <= rows; r0 += 8) {
    std::size_t c0 = 0;
    for (; c0 + 8 <= cols; c0 += 8) {
      __m256 v[8];
      for (std::size_t k = 0; k < 8; ++k)
        v[k] = _mm256_cvtph_ps(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + (r0 + k) * ld + c0)));
      transpose8(v);
      for (std::size_t k = 0; k < 8; ++k)
        _mm256_storeu_ps(dst + (c0 + k) * rows + r0, v[k]);
    }
    for (; c0 < cols; ++c0)
      for (std::size_t k = 0; k < 8; ++k)
        dst[c0 * rows + r0 + k] = widen(src[(r0 + k) * ld + c0]);
  }
#endif
  for (; r0 < rows; ++r0)
    for (std::size_t c = 0; c < cols; ++c)
      dst[c * rows + r0] = widen(src[r0 * ld + c]);
#ifdef VENOM_USE_F16C
  _mm256_zeroupper();  // see float_to_half_n
#endif
}

void float_to_half_n(const float* src, half_t* dst, std::size_t n) {
#ifdef VENOM_USE_F16C
  // VCVTPS2PH with round-to-nearest-even matches float_to_bits on every
  // finite and infinite input (including halfway cases and subnormal
  // outputs); NaN lanes are rewritten to float_to_bits' quiet NaN, so the
  // result is bit-identical to the scalar conversion on every input.
  const auto convert8 = [](const float* s) {
    const __m128i h = _mm256_cvtps_ph(
        _mm256_loadu_ps(s), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m128i nan = _mm_cmpgt_epi16(
        _mm_and_si128(h, _mm_set1_epi16(0x7fff)), _mm_set1_epi16(0x7c00));
    const __m128i quiet =
        _mm_or_si128(_mm_and_si128(h, _mm_set1_epi16(-0x8000)),
                     _mm_set1_epi16(0x7e00));
    return _mm_blendv_epi8(h, quiet, nan);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), convert8(src + i));
  if (i < n) {
    // Ragged tail through a padded 8-lane buffer: the same instruction as
    // the body, and no call into scalar code with the ymm state dirty.
    alignas(32) float in[8] = {};
    alignas(16) half_t out[8];
    std::memcpy(in, src + i, (n - i) * sizeof(float));
    _mm_store_si128(reinterpret_cast<__m128i*>(out), convert8(in));
    std::memcpy(dst + i, out, (n - i) * sizeof(half_t));
  }
  // Leave the upper ymm state clean whatever path returned: legacy-SSE
  // code run after a dirty VEX-256 state (glibc's tanhf/expf among it)
  // pays a several-fold penalty on every instruction.
  _mm256_zeroupper();
#else
  for (std::size_t i = 0; i < n; ++i) dst[i] = half_t(src[i]);
#endif
}

std::ostream& operator<<(std::ostream& os, half_t h) {
  return os << h.to_float();
}

}  // namespace venom
