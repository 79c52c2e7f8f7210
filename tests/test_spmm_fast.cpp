// Parity tests for the high-throughput SpMM pipeline: the packed
// float-panel micro-kernel (spmm_vnm) must be bit-identical to both the
// naive oracle (spmm_vnm_reference) and the seed scalar path
// (spmm_vnm_scalar) — same fp32 accumulation order per output element —
// across ragged shapes and both ColumnLocModes. Also covers the bulk
// fp16 converters and the chunked parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "baselines/spmm_24.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"
#include "serving_geometry.hpp"

namespace venom::spatha {
namespace {

VnmMatrix random_vnm(std::size_t rows, std::size_t cols, VnmConfig cfg,
                     std::uint64_t seed) {
  Rng rng(seed);
  return VnmMatrix::from_dense_magnitude(random_half_matrix(rows, cols, rng),
                                         cfg);
}

// Shapes chosen so that B.cols() is not a multiple of block_c (ragged
// width tails shorter than the register strip) and the group count is not
// a multiple of groups_per_panel (ragged K panels).
struct Case {
  VnmConfig fmt;
  std::size_t rows, cols, b_cols;
  std::size_t block_k, block_c;
};

const Case kCases[] = {
    {{4, 2, 8}, 16, 80, 70, 16, 64},   // 10 groups, 2/panel; widths 64+6
    {{8, 2, 10}, 32, 110, 37, 30, 16}, // 11 groups, 3/panel (ragged)
    {{16, 2, 4}, 32, 64, 33, 12, 33},  // width 33 = 2 strips + tail 1
    {{2, 2, 5}, 8, 25, 19, 10, 7},     // M=5, sel=4, everything ragged
    {{4, 1, 2}, 8, 16, 20, 6, 9},      // M<4 degenerate (sel = M = 2)
};

SpmmConfig make_config(const Case& c) {
  SpmmConfig cfg = select_config(c.fmt, c.rows, c.cols, c.b_cols);
  cfg.block_k = c.block_k;
  cfg.block_c = c.block_c;
  return cfg;
}

TEST(SpmmFast, BitIdenticalToReferenceAcrossRaggedShapes) {
  std::uint64_t seed = 100;
  for (const Case& c : kCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    const SpmmConfig cfg = make_config(c);

    const FloatMatrix fast = spmm_vnm(a, b, cfg);
    const FloatMatrix ref = spmm_vnm_reference(a, b);
    const FloatMatrix seed_path = spmm_vnm_scalar(a, b, cfg);
    EXPECT_EQ(fast, ref) << "fast != reference for " << cfg.describe();
    EXPECT_EQ(fast, seed_path) << "fast != seed scalar for "
                               << cfg.describe();
    seed += 7;
  }
}

TEST(SpmmFast, FixedColumnLocBitIdenticalToScalar) {
  // ColumnLocMode::kFixed reads selectors 0..sel-1 instead of the
  // column-loc metadata; the fast and seed paths must agree bit-for-bit
  // on the ablation too.
  std::uint64_t seed = 500;
  for (const Case& c : kCases) {
    Rng rng(seed + 1);
    const VnmMatrix a = random_vnm(c.rows, c.cols, c.fmt, seed);
    const HalfMatrix b = random_half_matrix(c.cols, c.b_cols, rng);
    SpmmConfig cfg = make_config(c);
    cfg.column_loc = ColumnLocMode::kFixed;
    EXPECT_EQ(spmm_vnm(a, b, cfg), spmm_vnm_scalar(a, b, cfg));
    seed += 7;
  }
}

TEST(SpmmFast, FixedColumnLocMatchesReferenceOnIdentitySelection) {
  // With the pattern confined to the first 4 columns of every M-group the
  // selection is the identity, so the kFixed ablation must equal the real
  // kernel and the reference exactly.
  Rng rng(13);
  HalfMatrix dense(8, 16);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t g = 0; g < 2; ++g)
      for (std::size_t c = 0; c < 4; ++c)
        dense(r, g * 8 + c) = half_t(rng.normal());
  const VnmConfig fmt{4, 2, 8};
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(dense, fmt);
  const HalfMatrix b = random_half_matrix(16, 21, rng);
  SpmmConfig cfg = select_config(fmt, 8, 16, 21);
  cfg.block_c = 8;  // ragged widths 8, 8, 5
  cfg.column_loc = ColumnLocMode::kFixed;
  EXPECT_EQ(spmm_vnm(a, b, cfg), spmm_vnm_reference(a, b));
}

TEST(SpmmFast, FusedEpilogueMatchesHalfOfUnfused) {
  // With an empty epilogue the fused kernel is to_half(spmm_vnm(..)).
  Rng rng(31);
  const VnmConfig fmt{8, 2, 10};
  const VnmMatrix a = random_vnm(32, 110, fmt, 32);
  const HalfMatrix b = random_half_matrix(110, 37, rng);
  const SpmmConfig cfg = select_config(fmt, 32, 110, 37);
  const HalfMatrix fused = spmm_vnm_fused(a, b, Epilogue{}, cfg);
  const HalfMatrix expect = to_half(spmm_vnm(a, b, cfg));
  ASSERT_EQ(fused.rows(), expect.rows());
  ASSERT_EQ(fused.cols(), expect.cols());
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_EQ(fused.flat()[i].bits(), expect.flat()[i].bits()) << "at " << i;
}

TEST(SpmmFast, ServingGeometryBitIdenticalWithPoisonedZeroSlots) {
  // V of real models (and 24, which ends in a partial 16-row lane block)
  // against every decode / prefill / mixed-batch width: the row-lane
  // kernel (widths below 16, the tails of 17, 31, 33) and the strips.
  // B rows that only zero-valued slots select hold Inf/NaN/-0, so a
  // kernel that multiplies a zero weight instead of skipping it fails.
  std::uint64_t seed = 900;
  for (const std::size_t v : test_geometry::kServingV) {
    for (const ColumnLocMode mode :
         {ColumnLocMode::kEnabled, ColumnLocMode::kFixed}) {
      const VnmMatrix a = test_geometry::serving_operand(v, seed++);
      ASSERT_GT(test_geometry::poisoned_zero_slots(a, mode), 0u);
      std::vector<float> bias(a.rows());
      for (std::size_t r = 0; r < a.rows(); ++r)
        bias[r] = 0.25f * float(r % 7) - 0.5f;
      const Epilogue epilogue{bias, Activation::kGelu};
      for (const std::size_t width : test_geometry::kServingWidths) {
        const HalfMatrix b = test_geometry::poisoned_b(
            a, mode, width, seed++, test_geometry::non_finite_specials());
        SpmmConfig cfg = select_config(a.config(), a.rows(), a.cols(), width);
        cfg.column_loc = mode;
        const FloatMatrix fast = spmm_vnm(a, b, cfg);
        const FloatMatrix oracle = spmm_vnm_scalar(a, b, cfg);
        EXPECT_EQ(fast, oracle) << "V=" << v << " width=" << width
                                << " mode=" << int(mode);
        if (mode == ColumnLocMode::kEnabled) {
          EXPECT_EQ(fast, spmm_vnm_reference(a, b)) << "V=" << v
                                                    << " width=" << width;
        }
        const HalfMatrix fused = spmm_vnm_fused(a, b, epilogue, cfg);
        for (std::size_t r = 0; r < a.rows(); ++r)
          for (std::size_t n = 0; n < width; ++n)
            ASSERT_EQ(fused(r, n).bits(),
                      half_t(apply_activation(Activation::kGelu,
                                              oracle(r, n) + bias[r]))
                          .bits())
                << "fused V=" << v << " width=" << width << " at (" << r
                << ", " << n << ")";
      }
    }
  }
}

TEST(SpmmNm, BitIdenticalToSpmm24Baseline) {
  // The register-blocked N:M fast path must reproduce the scalar spmm_24
  // bit for bit (same per-element accumulation order) — it replaces it in
  // the dynamic-attention context matmul.
  for (const NmPattern pattern : {NmPattern{2, 4}, NmPattern{1, 2}}) {
    for (const std::size_t width : {8u, 37u, 70u}) {  // ragged strip tails
      Rng rng(17 + pattern.m + width);
      const NmMatrix a = NmMatrix::from_dense_magnitude(
          random_half_matrix(24, 32, rng), pattern);
      const HalfMatrix b = random_half_matrix(32, width, rng);
      const FloatMatrix fast = spmm_nm(a, b);
      const FloatMatrix base = spmm_24(a, b);
      ASSERT_EQ(fast.rows(), base.rows());
      ASSERT_EQ(fast.cols(), base.cols());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast.flat()[i], base.flat()[i])
            << pattern.n << ':' << pattern.m << " width " << width
            << " elem " << i;
    }
  }
}

TEST(SpmmNm, HandlesNonHardwarePatterns) {
  // spmm_24 is restricted to the shapes cuSparseLt accepts; the CPU fast
  // path has no such constraint. Check 2:8 against a dense reference.
  Rng rng(29);
  const NmPattern pattern{2, 8};
  const NmMatrix a = NmMatrix::from_dense_magnitude(
      random_half_matrix(8, 32, rng), pattern);
  const HalfMatrix b = random_half_matrix(32, 12, rng);
  const FloatMatrix c = spmm_nm(a, b);
  const HalfMatrix ad = a.to_dense();
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t n = 0; n < 12; ++n) {
      float ref = 0.0f;
      for (std::size_t k = 0; k < 32; ++k)
        ref += ad(r, k).to_float() * b(k, n).to_float();
      EXPECT_NEAR(c(r, n), ref, 1e-3f + 1e-3f * std::fabs(ref));
    }
}

TEST(SpmmNm, ScratchPoolExecutionStaysBitIdentical) {
  // spmm_vnm with a caller-owned scratch pool (the serving plan path)
  // must not perturb results; repeated executions reuse pooled buffers.
  Rng rng(31);
  const VnmMatrix a = random_vnm(32, 80, {8, 2, 8}, 33);
  const HalfMatrix b = random_half_matrix(80, 70, rng);
  const SpmmConfig cfg = select_config({8, 2, 8}, 32, 80, 70);
  const FloatMatrix plain = spmm_vnm(a, b, cfg);
  SpmmScratchPool scratch;
  for (int round = 0; round < 3; ++round) {
    const FloatMatrix pooled = spmm_vnm(a, b, cfg, nullptr, &scratch);
    for (std::size_t i = 0; i < plain.size(); ++i)
      ASSERT_EQ(pooled.flat()[i], plain.flat()[i]) << round << ' ' << i;
  }
  EXPECT_GE(scratch.created(), 1u);
}

TEST(HalfBulk, HalfToFloatMatchesScalarExhaustively) {
  // Every one of the 65536 bit patterns, including subnormals, infinities
  // and NaNs, must convert exactly as half_t::to_float does.
  std::vector<half_t> src(1 << 16);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = half_t::from_bits(static_cast<std::uint16_t>(i));
  std::vector<float> dst(src.size());
  half_to_float_n(src.data(), dst.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float expect = src[i].to_float();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dst[i]),
              std::bit_cast<std::uint32_t>(expect))
        << "half bits 0x" << std::hex << i;
  }
  // Repeat in 7-element chunks: below the SIMD width, so every value —
  // including the subnormal range — also exercises the scalar tail loop.
  for (std::size_t base = 0; base < src.size(); base += 7) {
    const std::size_t len = std::min<std::size_t>(7, src.size() - base);
    half_to_float_n(src.data() + base, dst.data() + base, len);
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float expect = src[i].to_float();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dst[i]),
              std::bit_cast<std::uint32_t>(expect))
        << "scalar tail, half bits 0x" << std::hex << i;
  }
}

TEST(HalfBulk, FloatToHalfMatchesScalarOnFiniteAndInf) {
  std::vector<float> src;
  // Rounding-sensitive corpus: magnitudes across the half range, exact
  // halfway cases, the overflow boundary, subnormal outputs, and zeros.
  Rng rng(7);
  for (int i = 0; i < 4096; ++i)
    src.push_back(rng.normal() * std::pow(2.0f, (i % 40) - 20));
  for (float f : {0.0f, -0.0f, 1.0f, 1.0f + 0x1p-11f, 1.0f + 0x1.8p-11f,
                  65519.0f, 65519.999f, 65520.0f, 70000.0f, 0x1p-24f,
                  0x1.8p-24f, 0x1p-25f, 0x1p-26f, 6.1e-5f, -6.1e-5f})
    for (float s : {1.0f, -1.0f}) src.push_back(f * s);
  src.push_back(std::numeric_limits<float>::infinity());
  src.push_back(-std::numeric_limits<float>::infinity());

  std::vector<half_t> dst(src.size());
  float_to_half_n(src.data(), dst.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i)
    EXPECT_EQ(dst[i].bits(), half_t(src[i]).bits()) << "input " << src[i];
}

TEST(HalfBulk, FloatToHalfNanStaysNan) {
  std::vector<float> src(9, std::numeric_limits<float>::quiet_NaN());
  std::vector<half_t> dst(src.size());
  float_to_half_n(src.data(), dst.data(), src.size());
  for (const half_t h : dst) EXPECT_TRUE(h.is_nan());
}

TEST(HalfBulk, TransposedMatchesScalarOnRaggedPanels) {
  // Panels cut from a buffer that holds every half bit pattern (NaNs,
  // infinities and subnormals included), with sides that straddle the
  // 8 x 8 register blocks, read out of a wider matrix (ld > cols).
  std::vector<half_t> src(65536 + 64);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = half_t::from_bits(static_cast<std::uint16_t>(i * 40503u));
  for (const std::size_t rows : {1u, 7u, 8u, 9u, 16u, 64u})
    for (const std::size_t cols : {1u, 5u, 8u, 13u, 64u, 100u}) {
      const std::size_t ld = cols + 3;
      for (std::size_t base = 0; base + rows * ld <= src.size();
           base += 997 * ld) {
        std::vector<float> dst(rows * cols);
        half_to_float_transposed(src.data() + base, ld, rows, cols,
                                 dst.data());
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < cols; ++c)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(dst[c * rows + r]),
                      std::bit_cast<std::uint32_t>(
                          src[base + r * ld + c].to_float()))
                << rows << "x" << cols << " at (" << r << ", " << c << ")";
      }
    }
}

TEST(ThreadPoolFast, ChunkedCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1037);
  pool.parallel_for_chunks(hits.size(), [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolFast, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(512,
                                 [](std::size_t i) {
                                   if (i == 337)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay serviceable after a failed loop.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace venom::spatha
