// Internal fast path shared by the float-panel SpMM kernels: spmm_vnm
// (spmm.cpp), its fused/batched variants (epilogue.cpp) and the fp8
// datapath (quant/quantized_vnm.cpp). Not part of the public API.
//
// The pipeline replaces the seed's per-FMA half->float conversion and
// per-element accessor arithmetic with:
//
//   gather_b_panel_f32     stage 1.2 gathers the selected B rows AND
//                          converts them to a packed float panel in one
//                          pass (half_to_float_n), so each gathered value
//                          is converted exactly once per panel.
//   accumulate_panel_f32   stage 2, two register-blocked micro-kernels
//                          over one panel:
//                          * column strips: each row's nonzero values and
//                            panel-row offsets are hoisted into flat
//                            scratch, then 16-column strips accumulate in
//                            local registers;
//                          * row lanes: the columns past the last full
//                            strip (all of a tile narrower than 16) put
//                            16 rows of the block row in the lanes
//                            instead. The rows share the tile's
//                            column-loc gather, so each lane reads the
//                            common panel column through its own m-index.
//
// Numerics: per output element, products are accumulated in fp32 in
// ascending (group, j) order and zero-valued slots are skipped —
// bit-identical to spmm_vnm_reference and to the seed scalar path. The
// row-lane kernel keeps that contract with a per-lane mask: a lane whose
// slot holds a zero value keeps its accumulator untouched, so a zero
// weight never multiplies an Inf/NaN activation. Both kernels are plain
// C++ fixed-lane loops (the form the oracles are written in), so the
// compiler contracts `acc + a * b` the same way in all of them on every
// target.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/half.hpp"
#include "common/thread_pool.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/spmm.hpp"  // detail::SpmmScratch
#include "tensor/matrix.hpp"

namespace venom::spatha::detail {

/// Width of the register block: 16 floats = one zmm register (or two ymm),
/// unrolled fully by the compiler.
constexpr std::size_t kStrip = 16;

/// Rows per lane block of the row-lane kernel (one zmm of fp32 lanes).
constexpr std::size_t kLanes = 16;

/// M-groups per row-lane pass: caps the lane-major slot scratch near
/// 4 KiB however long the K panel is (kept warm per worker and weight).
constexpr std::size_t kLaneGroups = 16;

/// Bulk value decode of the fp16 operand: dst[i] = float(values[first +
/// i]) for i < count (F16C when available). The fp8 datapath supplies
/// its table decode instead.
inline auto half_values(const VnmMatrix& a) {
  return [vals = a.values().data()](std::size_t first, std::size_t count,
                                    float* dst) {
    half_to_float_n(vals + first, dst, count);
  };
}

/// Stage 1.2: gathers the B rows selected by column-loc for K-panel
/// [g0, g1) of block row `br` into a packed float panel restricted to
/// output columns [c0, c1). Layout matches the seed's half panel:
/// panel[((g - g0) * sel + s) * width + n]. When `fixed` is set, selectors
/// 0..sel-1 replace the column-loc reads (the Fig. 9 ablation). `A` is
/// any V:N:M container (fp16 or fp8 values; the structure is the same).
template <class A>
inline void gather_b_panel_f32(const A& a, const HalfMatrix& b,
                               std::size_t br, std::size_t g0, std::size_t g1,
                               std::size_t c0, std::size_t c1, bool fixed,
                               std::vector<float>& panel) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t width = c1 - c0;
  const std::size_t groups = a.groups_per_row();
  panel.resize((g1 - g0) * sel * width);
  const std::uint8_t* cloc =
      a.column_locs().data() + (br * groups + g0) * sel;
  for (std::size_t g = g0; g < g1; ++g) {
    for (std::size_t s = 0; s < sel; ++s) {
      const std::size_t offset = fixed ? s : cloc[(g - g0) * sel + s];
      half_to_float_n(&b(g * fmt.m + offset, c0),
                      &panel[((g - g0) * sel + s) * width], width);
    }
  }
}

/// Column-strip kernel: accumulates output columns [0, strips) — a
/// multiple of kStrip — of every row of block row `br`.
template <class A, class Decode>
inline void accumulate_strips_f32(const A& a, const Decode& decode,
                                  std::size_t br, std::size_t g0,
                                  std::size_t g1, std::size_t width,
                                  std::size_t strips, SpmmScratch& s,
                                  float* acc) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t span = (g1 - g0) * fmt.n;
  s.a_vals.resize(span);
  s.a_offs.resize(span);
  const float* pan = s.panel.data();

  for (std::size_t dr = 0; dr < fmt.v; ++dr) {
    // Hoist this row's nonzero descriptors out of the compressed
    // structures: one bulk decode, then one compacting pass (in place:
    // the write index never passes the read index).
    const std::size_t base = ((br * fmt.v + dr) * groups + g0) * fmt.n;
    const std::uint8_t* midx = a.m_indices().data() + base;
    decode(base, span, s.a_vals.data());
    std::size_t cnt = 0;
    for (std::size_t k = 0, row0 = 0; k < span; row0 += sel) {
      for (std::size_t j = 0; j < fmt.n; ++j, ++k) {
        const float av = s.a_vals[k];
        if (av == 0.0f) continue;
        s.a_vals[cnt] = av;
        s.a_offs[cnt] = static_cast<std::uint32_t>((row0 + midx[k]) * width);
        ++cnt;
      }
    }

    float* arow = acc + dr * width;
    for (std::size_t n0 = 0; n0 < strips; n0 += kStrip) {
      float regs[kStrip];
      for (std::size_t u = 0; u < kStrip; ++u) regs[u] = arow[n0 + u];
      for (std::size_t t = 0; t < cnt; ++t) {
        const float av = s.a_vals[t];
        const float* bp = pan + s.a_offs[t] + n0;
        for (std::size_t u = 0; u < kStrip; ++u) regs[u] += av * bp[u];
      }
      for (std::size_t u = 0; u < kStrip; ++u) arow[n0 + u] = regs[u];
    }
  }
}

/// Row-lane accumulation of C adjacent output columns [n, n + C) of one
/// lane block (`block` = its first row of the accumulator tile). The C
/// accumulator sets are independent chains that share each slot's value
/// and selector loads and its per-lane selection masks.
template <std::size_t C>
inline void lane_columns_f32(const float* lane_vals,
                             const std::uint32_t* lane_sel, const float* pan,
                             std::size_t groups, std::size_t slots_per_group,
                             std::size_t sel, std::size_t width,
                             std::size_t n, std::size_t lanes, float* block) {
  float regs[C][kLanes];
  for (std::size_t c = 0; c < C; ++c)
    for (std::size_t u = 0; u < kLanes; ++u)
      regs[c][u] = u < lanes ? block[u * width + n + c] : 0.0f;
  const float* kv = lane_vals;
  const std::uint32_t* ks = lane_sel;
  for (std::size_t g = 0; g < groups; ++g) {
    // The group's selected B values at columns n.., shared by all lanes.
    const float* bcol = pan + g * sel * width + n;
    for (std::size_t j = 0; j < slots_per_group;
         ++j, kv += kLanes, ks += kLanes) {
      float bl[C][kLanes];
      for (std::size_t c = 0; c < C; ++c)
        for (std::size_t u = 0; u < kLanes; ++u) bl[c][u] = bcol[c];
      for (std::uint32_t sl = 1; sl < sel; ++sl)
        for (std::size_t c = 0; c < C; ++c) {
          const float bs = bcol[sl * width + c];
          for (std::size_t u = 0; u < kLanes; ++u)
            bl[c][u] = ks[u] == sl ? bs : bl[c][u];
        }
      for (std::size_t c = 0; c < C; ++c)
        for (std::size_t u = 0; u < kLanes; ++u) {
          const float sum = regs[c][u] + kv[u] * bl[c][u];
          regs[c][u] = kv[u] != 0.0f ? sum : regs[c][u];
        }
    }
  }
  for (std::size_t c = 0; c < C; ++c)
    for (std::size_t u = 0; u < lanes; ++u)
      block[u * width + n + c] = regs[c][u];
}

/// Row-lane kernel: accumulates groups [ga, gb) of the panel that
/// starts at group g0 into output columns [n0, width) of block row `br`,
/// kLanes rows at a time. Each lane block's slots are transposed to
/// [slot][lane] (value and m-index; a V that is not a multiple of kLanes
/// ends in a partial block whose missing lanes carry value 0). Per column
/// and slot, every lane picks its panel row among the group's `sel`
/// shared selectors, and accumulates only where its value is nonzero.
template <class A, class Decode>
inline void accumulate_lanes_f32(const A& a, const Decode& decode,
                                 std::size_t br, std::size_t g0,
                                 std::size_t ga, std::size_t gb,
                                 std::size_t width, std::size_t n0,
                                 SpmmScratch& s, float* acc) {
  const VnmConfig fmt = a.config();
  const std::size_t sel = fmt.selected_cols();
  const std::size_t groups = a.groups_per_row();
  const std::size_t span = (gb - ga) * fmt.n;
  // Lane-major slots, then one row of decode staging.
  s.a_vals.resize(span * (kLanes + 1));
  s.a_offs.resize(span * kLanes);
  float* lane_vals = s.a_vals.data();
  float* row_vals = lane_vals + span * kLanes;
  std::uint32_t* lane_sel = s.a_offs.data();
  const float* pan = s.panel.data() + (ga - g0) * sel * width;

  for (std::size_t dr0 = 0; dr0 < fmt.v; dr0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, fmt.v - dr0);
    const std::size_t base0 = ((br * fmt.v + dr0) * groups + ga) * fmt.n;
    const std::size_t stride = groups * fmt.n;  // between rows' slots
    // A full fp16 block widens and transposes 8 x 8 blocks in registers;
    // the rest decode row by row and scatter.
    const bool transposed = std::is_same_v<A, VnmMatrix> && lanes == kLanes;
    if constexpr (std::is_same_v<A, VnmMatrix>) {
      if (transposed)
        half_to_float_transposed(a.values().data() + base0, stride, kLanes,
                                 span, lane_vals);
    }
    for (std::size_t u = 0; u < kLanes; ++u) {
      if (u >= lanes) {
        for (std::size_t k = 0; k < span; ++k) {
          lane_sel[k * kLanes + u] = 0;
          lane_vals[k * kLanes + u] = 0.0f;
        }
        continue;
      }
      const std::size_t first = base0 + u * stride;
      const std::uint8_t* midx = a.m_indices().data() + first;
      for (std::size_t k = 0; k < span; ++k) lane_sel[k * kLanes + u] = midx[k];
      if (transposed) continue;
      decode(first, span, row_vals);
      for (std::size_t k = 0; k < span; ++k)
        lane_vals[k * kLanes + u] = row_vals[k];
    }

    float* block = acc + dr0 * width;
    std::size_t n = n0;
    for (; n + 4 <= width; n += 4)
      lane_columns_f32<4>(lane_vals, lane_sel, pan, gb - ga, fmt.n, sel,
                          width, n, lanes, block);
    for (; n < width; ++n)
      lane_columns_f32<1>(lane_vals, lane_sel, pan, gb - ga, fmt.n, sel,
                          width, n, lanes, block);
  }
}

/// Stage 2 over one gathered panel: accumulates block row `br` against
/// the panel for groups [g0, g1) into `acc` (fmt.v rows of `width`
/// floats). Full 16-column strips take the column-strip kernel, the rest
/// the row-lane kernel. `decode(first, count, dst)` writes the float
/// values of flat slots [first, first + count) to dst.
template <class A, class Decode>
inline void accumulate_panel_f32(const A& a, const Decode& decode,
                                 std::size_t br, std::size_t g0,
                                 std::size_t g1, std::size_t width,
                                 SpmmScratch& s, float* acc) {
  const std::size_t strips = width - width % kStrip;
  if (strips > 0)
    accumulate_strips_f32(a, decode, br, g0, g1, width, strips, s, acc);
  // Lane passes run in ascending group order, so each element still
  // accumulates in (group, j) order across them.
  for (std::size_t ga = g0; strips < width && ga < g1; ga += kLaneGroups)
    accumulate_lanes_f32(a, decode, br, g0, ga,
                         std::min(g1, ga + kLaneGroups), width, strips, s,
                         acc);
}

/// Stages 1-2 for one V x [c0, c1) output tile: zeroes s.acc, then
/// gathers and accumulates one K panel at a time.
template <class A, class Decode>
inline void accumulate_tile_f32(const A& a, const Decode& decode,
                                const HalfMatrix& b, const SpmmConfig& cfg,
                                std::size_t br, std::size_t c0,
                                std::size_t c1, SpmmScratch& s) {
  const VnmConfig fmt = a.config();
  const std::size_t groups = a.groups_per_row();
  const std::size_t groups_per_panel = cfg.block_k / fmt.m;
  const std::size_t width = c1 - c0;
  const bool fixed = cfg.column_loc == ColumnLocMode::kFixed;
  s.acc.assign(fmt.v * width, 0.0f);
  for (std::size_t g0 = 0; g0 < groups; g0 += groups_per_panel) {
    const std::size_t g1 = std::min(groups, g0 + groups_per_panel);
    gather_b_panel_f32(a, b, br, g0, g1, c0, c1, fixed, s.panel);
    accumulate_panel_f32(a, decode, br, g0, g1, width, s, s.acc.data());
  }
}

/// The float-panel tile loop: one pool iteration per (block row, C tile)
/// — BSr = V, so each tile owns a V x BSc output and reuses one
/// column-loc row, the paper's thread-block decomposition (Fig. 5).
/// Scratch lives per chunk (or is leased from `scratch`), so panel and
/// accumulator buffers are reused across tiles and calls. Stage 3 is
/// `write_back(br, c0, width, acc)` with acc the finished V x width tile
/// (writable; the fused epilogue works in place).
template <class A, class Decode, class WriteBack>
inline void run_tiles_f32(const A& a, const Decode& decode,
                          const HalfMatrix& b, const SpmmConfig& cfg,
                          ThreadPool& pool, SpmmScratchPool* scratch,
                          const WriteBack& write_back) {
  const std::size_t c_tiles = (b.cols() + cfg.block_c - 1) / cfg.block_c;
  pool.parallel_for_chunks(
      a.block_rows() * c_tiles, [&](std::size_t t0, std::size_t t1) {
        ScratchLease scratch_lease;
        SpmmScratch& s = scratch_lease.bind(scratch);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t br = t / c_tiles;
          const std::size_t c0 = (t % c_tiles) * cfg.block_c;
          const std::size_t c1 = std::min(b.cols(), c0 + cfg.block_c);
          accumulate_tile_f32(a, decode, b, cfg, br, c0, c1, s);
          write_back(br, c0, c1 - c0, s.acc.data());
        }
      },
      cfg.chunk_grain);
}

/// Stage 3 of the unfused kernels: copies each finished tile into `c`.
inline auto copy_tile_to(FloatMatrix& c, std::size_t v) {
  return [&c, v](std::size_t br, std::size_t c0, std::size_t width,
                 const float* acc) {
    for (std::size_t dr = 0; dr < v; ++dr)
      std::copy(acc + dr * width, acc + (dr + 1) * width,
                &c(br * v + dr, c0));
  };
}

/// Fused stage 3: bias + activation + fp16 conversion of each tile
/// (apply_epilogue_tile) into `c`.
inline auto epilogue_tile_to(HalfMatrix& c, std::size_t v,
                             const Epilogue& epilogue) {
  return [&c, v, &epilogue](std::size_t br, std::size_t c0,
                            std::size_t width, float* acc) {
    apply_epilogue_tile(epilogue, br * v, v, acc, width, &c(br * v, c0),
                        c.cols());
  };
}

}  // namespace venom::spatha::detail
