#include "spatha/epilogue.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "spatha/microkernel.hpp"

namespace venom::spatha {

float apply_activation(Activation act, float v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kGelu: {
      constexpr float kSqrt2OverPi = 0.7978845608028654f;
      const float t = std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v));
      return 0.5f * v * (1.0f + t);
    }
  }
  return v;
}

void apply_epilogue_tile(const Epilogue& epilogue, std::size_t r0,
                         std::size_t rows, float* acc, std::size_t width,
                         half_t* out, std::size_t ld) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float bias = epilogue.bias.empty() ? 0.0f : epilogue.bias[r0 + i];
    float* row = acc + i * width;
    if (epilogue.activation == Activation::kNone) {
      for (std::size_t n = 0; n < width; ++n) row[n] = row[n] + bias;
    } else {
      for (std::size_t n = 0; n < width; ++n)
        row[n] = apply_activation(epilogue.activation, row[n] + bias);
    }
  }
  if (ld == width) {
    float_to_half_n(acc, out, rows * width);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i)
    float_to_half_n(acc + i * width, out + i * ld, width);
}

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool, SpmmScratchPool* scratch) {
  const VnmConfig fmt = a.config();
  VENOM_CHECK_MSG(a.cols() == b.rows(), "SpMM shape mismatch");
  VENOM_CHECK_MSG(epilogue.bias.empty() || epilogue.bias.size() == a.rows(),
                  "bias size " << epilogue.bias.size() << " != rows "
                               << a.rows());
  validate(cfg, fmt, a.rows(), a.cols(), b.cols());
  if (pool == nullptr) pool = &ThreadPool::global();

  HalfMatrix c(a.rows(), b.cols());
  detail::run_tiles_f32(a, detail::half_values(a), b, cfg, *pool, scratch,
                        detail::epilogue_tile_to(c, fmt.v, epilogue));
  return c;
}

HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, ThreadPool* pool) {
  return spmm_vnm_fused(a, b, epilogue,
                        select_config(a.config(), a.rows(), a.cols(),
                                      b.cols()),
                        pool);
}

std::vector<FloatMatrix> spmm_vnm_batched(const VnmMatrix& a,
                                          std::span<const HalfMatrix> bs,
                                          ThreadPool* pool) {
  VENOM_CHECK_MSG(!bs.empty(), "empty batch");
  const std::size_t b_rows = bs[0].rows();
  const std::size_t b_cols = bs[0].cols();
  for (const auto& b : bs)
    VENOM_CHECK_MSG(b.rows() == b_rows && b.cols() == b_cols,
                    "batch operands must share a shape");
  VENOM_CHECK(a.cols() == b_rows);
  if (pool == nullptr) pool = &ThreadPool::global();

  const VnmConfig fmt = a.config();
  const SpmmConfig cfg = select_config(fmt, a.rows(), a.cols(), b_cols);
  std::vector<FloatMatrix> cs(bs.size());
  for (auto& c : cs) c = FloatMatrix(a.rows(), b_cols);

  const std::size_t c_tiles = (b_cols + cfg.block_c - 1) / cfg.block_c;
  pool->parallel_for_chunks(
      a.block_rows() * c_tiles, [&](std::size_t t0, std::size_t t1) {
        detail::SpmmScratch s;
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t c0 = (t % c_tiles) * cfg.block_c;
          const std::size_t c1 = std::min(b_cols, c0 + cfg.block_c);

          // The sparse operand's traversal order and column-loc reads
          // repeat identically for every batch element — the
          // weight-stationary reuse batched inference exploits.
          for (std::size_t batch = 0; batch < bs.size(); ++batch) {
            detail::accumulate_tile_f32(a, detail::half_values(a), bs[batch],
                                        cfg, br, c0, c1, s);
            detail::copy_tile_to(cs[batch], fmt.v)(br, c0, c1 - c0,
                                                   s.acc.data());
          }
        }
      },
      cfg.chunk_grain);
  return cs;
}

}  // namespace venom::spatha
