// Quantized int8 / fp8 V:N:M matrices and SpMM (the Table-1 integer rows
// and the reduced-precision serving datapath).
//
// SPTCs execute the same 2:4 selection at int8 precision with int32
// accumulate, or at fp8 with fp32 accumulate. Following Magicube [Li et
// al., SC'22] — quantized sparse kernels on tensor cores — this module
// holds two reduced-precision views of a V:N:M matrix:
//
//   QuantizedVnmMatrix  symmetric per-row int8:
//                         values_i8[i] = round(values_fp16[i] / scale_row)
//                       in [-127, 127], scale_row = max|row| / 127.
//   Fp8VnmMatrix        direct E5M2/E4M3 re-encoding of the fp16 values
//                       (fp8 carries its own exponent, so no scales).
//
// Both share the m-indices / column-loc structures unchanged, so every
// kernel below walks the exact Fig. 5 decomposition of spatha::spmm_vnm:
// column-loc gather of B into a packed panel, register-blocked
// multiply-accumulate, contiguous write-back. The int8 path gathers a
// packed *int8* B panel (4x less panel traffic than the float image) and
// accumulates in int32, dequantizing on the epilogue with
// scale_row * scale_col; the fp8 path upconverts its operands to float
// once per gather exactly like the fp16 pipeline. Each fast kernel has a
// scalar oracle it is bit-identical to (int32 accumulation is exact; the
// fp8 path accumulates per output element in the oracle's ascending
// (group, j) order).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fp8.hpp"
#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::quant {

/// int8 symmetric-quantized V:N:M matrix.
class QuantizedVnmMatrix {
 public:
  QuantizedVnmMatrix() = default;

  /// Quantizes an existing fp16 V:N:M matrix with per-row scales
  /// (scale = max|row| / 127; all-zero rows get scale 0).
  static QuantizedVnmMatrix quantize(const VnmMatrix& fp16);

  /// Dequantizes back to the fp16 V:N:M form (lossy by <= scale/2 per
  /// element).
  VnmMatrix dequantize() const;

  /// Reassembles a matrix from raw compressed structures (the
  /// deserialization path). Validates sizes and index ranges; throws
  /// venom::Error on any inconsistency.
  static QuantizedVnmMatrix from_parts(VnmConfig cfg, std::size_t rows,
                                       std::size_t cols,
                                       std::vector<std::int8_t> values,
                                       std::vector<std::uint8_t> m_indices,
                                       std::vector<std::uint8_t> column_loc,
                                       std::vector<float> scales);

  VnmConfig config() const { return cfg_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t groups_per_row() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  std::size_t nnz() const { return values_.size(); }

  std::int8_t value(std::size_t r, std::size_t g, std::size_t j) const {
    return values_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t m_index(std::size_t r, std::size_t g, std::size_t j) const {
    return m_indices_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t column_loc(std::size_t br, std::size_t g,
                          std::size_t s) const {
    return column_loc_[(br * groups_per_row() + g) * cfg_.selected_cols() + s];
  }
  float row_scale(std::size_t r) const { return scales_[r]; }

  const std::vector<std::int8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& m_indices() const { return m_indices_; }
  const std::vector<std::uint8_t>& column_locs() const { return column_loc_; }
  const std::vector<float>& row_scales() const { return scales_; }

  /// int8 values + 2-bit metadata + column-loc + fp32 row scales.
  std::size_t compressed_bytes() const;

 private:
  VnmConfig cfg_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> values_;
  std::vector<std::uint8_t> m_indices_;
  std::vector<std::uint8_t> column_loc_;
  std::vector<float> scales_;
};

/// fp8 (E5M2 or E4M3) V:N:M matrix: the fp16 values re-encoded per
/// element (round-to-nearest-even, E4M3 saturating), structure shared.
class Fp8VnmMatrix {
 public:
  Fp8VnmMatrix() = default;

  /// Re-encodes an fp16 V:N:M matrix's values in fp8. A nonzero fp16
  /// value below the format's subnormal range encodes to zero (the slot
  /// stays in the structure; kernels skip it like any other zero).
  static Fp8VnmMatrix quantize(const VnmMatrix& fp16, Fp8Format format);

  /// Decodes back to the fp16 V:N:M form (every fp8 value is exactly
  /// representable in fp16, so this direction is lossless).
  VnmMatrix dequantize() const;

  /// Deserialization path; validates sizes and index ranges.
  static Fp8VnmMatrix from_parts(VnmConfig cfg, std::size_t rows,
                                 std::size_t cols, Fp8Format format,
                                 std::vector<std::uint8_t> values,
                                 std::vector<std::uint8_t> m_indices,
                                 std::vector<std::uint8_t> column_loc);

  VnmConfig config() const { return cfg_; }
  Fp8Format format() const { return format_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t groups_per_row() const { return cols_ / cfg_.m; }
  std::size_t block_rows() const { return rows_ / cfg_.v; }
  std::size_t nnz() const { return values_.size(); }

  std::uint8_t value_bits(std::size_t r, std::size_t g,
                          std::size_t j) const {
    return values_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  float value(std::size_t r, std::size_t g, std::size_t j) const {
    return fp8_to_float(value_bits(r, g, j), format_);
  }
  std::uint8_t m_index(std::size_t r, std::size_t g, std::size_t j) const {
    return m_indices_[(r * groups_per_row() + g) * cfg_.n + j];
  }
  std::uint8_t column_loc(std::size_t br, std::size_t g,
                          std::size_t s) const {
    return column_loc_[(br * groups_per_row() + g) * cfg_.selected_cols() + s];
  }

  const std::vector<std::uint8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& m_indices() const { return m_indices_; }
  const std::vector<std::uint8_t>& column_locs() const { return column_loc_; }

  /// fp8 values + 2-bit metadata + column-loc (no scales).
  std::size_t compressed_bytes() const;

 private:
  VnmConfig cfg_;
  Fp8Format format_ = Fp8Format::kE4M3;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> m_indices_;
  std::vector<std::uint8_t> column_loc_;
};

/// C(fp32) = dequant(A_i8 * quant(B)): the dense operand is quantized
/// per column with symmetric int8; the kernel gathers packed int8 B
/// panels, accumulates in int32 (register-blocked column strips, row
/// lanes for the columns past the last full strip), and
/// the output element (r, c) dequantizes as
/// float(acc) * row_scale(r) * col_scale(c) on the epilogue. Tiling,
/// chunk_grain, and ColumnLocMode come from `cfg` (spmm_vnm semantics);
/// `scratch` recycles the packed panels across calls. Bit-identical to
/// spmm_vnm_i8_scalar for every configuration (integer accumulation is
/// exact, and both sides quantize B with the same shared helper).
FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        const spatha::SpmmConfig& cfg,
                        ThreadPool* pool = nullptr,
                        spatha::SpmmScratchPool* scratch = nullptr);

/// C_half = act(spmm_vnm_i8(a, b, cfg) + bias): the epilogue runs in the
/// dequantizing write-back of each tile (spatha::apply_epilogue_tile on
/// the dequantized tile), so the result is bit-identical to spmm_vnm_i8
/// followed by the separate epilogue, without materializing C in fp32.
HalfMatrix spmm_vnm_i8_fused(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                             const spatha::Epilogue& epilogue,
                             const spatha::SpmmConfig& cfg,
                             ThreadPool* pool = nullptr,
                             spatha::SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the tuned/heuristic configuration.
/// `tuning` is the cache whose "+i8" entry (if any) picks the config —
/// pass ExecContext::tuning_cache() when dispatch runs under a context
/// with a private cache, so a scoped tune is honoured here exactly as
/// it is in the registry backends; nullptr consults the process-wide
/// TuningCache::global().
FloatMatrix spmm_vnm_i8(const QuantizedVnmMatrix& a, const HalfMatrix& b,
                        ThreadPool* pool = nullptr,
                        const spatha::TuningCache* tuning = nullptr);

/// Naive oracle: element-at-a-time traversal, same B quantization and
/// dequantization expression as the fast kernel.
FloatMatrix spmm_vnm_i8_scalar(
    const QuantizedVnmMatrix& a, const HalfMatrix& b,
    spatha::ColumnLocMode mode = spatha::ColumnLocMode::kEnabled);

/// C(fp32) = A_fp8 * B: B gathers into packed float panels exactly like
/// the fp16 pipeline (one bulk fp16->float conversion per gather); the
/// fp8 nonzeros decode through the 256-entry table while hoisting, and
/// products accumulate in fp32 in ascending (group, j) order per output
/// element — bit-identical to spmm_vnm_fp8_scalar.
FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         const spatha::SpmmConfig& cfg,
                         ThreadPool* pool = nullptr,
                         spatha::SpmmScratchPool* scratch = nullptr);

/// Fused-epilogue form of spmm_vnm_fp8 (fp16 output), bit-identical to
/// spmm_vnm_fp8 followed by the separate epilogue.
HalfMatrix spmm_vnm_fp8_fused(const Fp8VnmMatrix& a, const HalfMatrix& b,
                              const spatha::Epilogue& epilogue,
                              const spatha::SpmmConfig& cfg,
                              ThreadPool* pool = nullptr,
                              spatha::SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the tuned/heuristic configuration (same
/// cache-threading contract as the spmm_vnm_i8 overload, under the
/// "+fp8" key).
FloatMatrix spmm_vnm_fp8(const Fp8VnmMatrix& a, const HalfMatrix& b,
                         ThreadPool* pool = nullptr,
                         const spatha::TuningCache* tuning = nullptr);

/// Naive oracle for the fp8 path.
FloatMatrix spmm_vnm_fp8_scalar(
    const Fp8VnmMatrix& a, const HalfMatrix& b,
    spatha::ColumnLocMode mode = spatha::ColumnLocMode::kEnabled);

}  // namespace venom::quant
