// Fused epilogues for the Spatha SpMM (stage 3 extensions).
//
// Production GEMM libraries fuse the per-output-element tail work — bias
// add, activation — into the kernel's write-back stage instead of
// launching separate element-wise kernels. spmm_vnm_fused applies the
// epilogue inside the same tile pass that stage 3 would use, saving one
// full read+write of C per fused op; the transformer Linear layer routes
// through it.
#pragma once

#include <span>

#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/spmm.hpp"
#include "tensor/matrix.hpp"

namespace venom::spatha {

/// Activation applied in the epilogue.
enum class Activation : std::uint8_t { kNone, kRelu, kGelu };

/// Epilogue description: optional per-row bias, then activation, then
/// output conversion to fp16 (the usual inference datapath).
struct Epilogue {
  std::span<const float> bias = {};  ///< empty = no bias; else size = rows
  Activation activation = Activation::kNone;
};

/// The epilogue's scalar activation (float domain). Exposed so the ops
/// layer's generic fused path applies exactly the arithmetic the fused
/// Spatha stage 3 does — keeping the two bit-identical by construction.
float apply_activation(Activation act, float v);

/// Stage 3 of a finished rows x width tile whose first row is output row
/// r0: out[i * ld + n] = half(act(acc[i * width + n] + bias[r0 + i])),
/// bias + activation in float (overwriting `acc`), then bulk fp16
/// conversion — one call for the whole tile when it spans full output
/// rows (ld == width), else one per row. Every fused write-back — the
/// Spatha kernels, the quantized backends and the ops layer's generic
/// fallback — runs this one function, so they agree bit for bit.
void apply_epilogue_tile(const Epilogue& epilogue, std::size_t r0,
                         std::size_t rows, float* acc, std::size_t width,
                         half_t* out, std::size_t ld);

/// C_half = act(A_vnm * B + bias), computed tile-by-tile with the
/// epilogue fused into the write-back stage. `scratch` as in spmm_vnm:
/// a pool owned by the caller keeps the packed panels warm across calls.
HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue, const SpmmConfig& cfg,
                          ThreadPool* pool = nullptr,
                          SpmmScratchPool* scratch = nullptr);

/// Convenience overload with the heuristic kernel configuration.
HalfMatrix spmm_vnm_fused(const VnmMatrix& a, const HalfMatrix& b,
                          const Epilogue& epilogue,
                          ThreadPool* pool = nullptr);

/// Batched SpMM: one sparse operand against `batch` dense operands
/// (weight reuse across a batch of activations, the inference hot path).
/// All B matrices must share b_rows x b_cols; outputs align by index.
/// The sparse operand's panels are gathered once per (block row, C tile)
/// and reused across the whole batch.
std::vector<FloatMatrix> spmm_vnm_batched(
    const VnmMatrix& a, std::span<const HalfMatrix> bs,
    ThreadPool* pool = nullptr);

}  // namespace venom::spatha
