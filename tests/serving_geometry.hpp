// Shared operands for the serving-geometry parity tests (test_spmm_fast,
// test_quant): the V of real models and every activation width a decode
// step, a prefill chunk or a mixed batch produces, with zero-valued
// weight slots whose selected B rows hold values that must never reach
// the output.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "format/vnm.hpp"
#include "spatha/config.hpp"
#include "tensor/matrix.hpp"

namespace venom::test_geometry {

/// 16, 64 and 128 fill whole 16-row lane blocks; 24 ends in a partial one.
inline constexpr std::size_t kServingV[] = {16, 64, 128, 24};

/// 1-15: a tile narrower than one 16-column strip (all row lanes); 16:
/// one strip; 17, 31, 33: strips plus a row-lane tail.
inline constexpr std::size_t kServingWidths[] = {1, 2, 7, 15, 16, 17, 31, 33};

/// A (v * 2) x 256 operand in v:2:8 (32 groups: more than one row-lane
/// pass per panel) with ascending m-indices and
/// column-locs, about a third of its slots zero-valued. Selector 3 holds
/// only zero values and always maps to the group's last column, so under
/// either ColumnLocMode some B rows are selected by zero-valued slots
/// alone.
inline VnmMatrix serving_operand(std::size_t v, std::uint64_t seed) {
  const VnmConfig cfg{v, 2, 8};
  const std::size_t rows = v * 2, cols = 256, groups = cols / cfg.m;
  Rng rng(seed);
  std::vector<half_t> values(rows * groups * cfg.n);
  std::vector<std::uint8_t> m_indices(values.size());
  for (std::size_t i = 0; i < values.size(); i += cfg.n) {
    const std::size_t first = rng.uniform_index(3);
    m_indices[i] = static_cast<std::uint8_t>(first);
    m_indices[i + 1] =
        static_cast<std::uint8_t>(first + 1 + rng.uniform_index(3 - first));
    for (std::size_t j = 0; j < cfg.n; ++j)
      values[i + j] = m_indices[i + j] == 3 || rng.uniform_index(3) == 0
                          ? half_t(0.0f)
                          : half_t(rng.normal());
  }
  std::vector<std::uint8_t> column_loc((rows / v) * groups * 4);
  for (std::size_t i = 0; i < column_loc.size(); i += 4) {
    // Three ascending distinct columns among the group's first six,
    // then its last one.
    std::size_t c = rng.uniform_index(2);
    for (std::size_t s = 0; s < 3; ++s, c += 1 + rng.uniform_index(2))
      column_loc[i + s] = static_cast<std::uint8_t>(c);
    column_loc[i + 3] = 7;
  }
  return VnmMatrix::from_parts(cfg, rows, cols, std::move(values),
                               std::move(m_indices), std::move(column_loc));
}

/// Marks the B rows that some nonzero slot of `a` selects under `mode`.
inline std::vector<bool> live_rows(const VnmMatrix& a,
                                   spatha::ColumnLocMode mode) {
  const VnmConfig fmt = a.config();
  std::vector<bool> live(a.cols(), false);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t g = 0; g < a.groups_per_row(); ++g)
      for (std::size_t j = 0; j < fmt.n; ++j) {
        if (a.value(r, g, j).is_zero()) continue;
        const std::uint8_t mi = a.m_index(r, g, j);
        live[g * fmt.m + (mode == spatha::ColumnLocMode::kFixed
                              ? mi
                              : a.column_loc(r / fmt.v, g, mi))] = true;
      }
  return live;
}

/// How many zero-valued slots of `a` select a row no nonzero slot
/// selects — the slots a poisoned B turns into a test of the zero skip.
inline std::size_t poisoned_zero_slots(const VnmMatrix& a,
                                       spatha::ColumnLocMode mode) {
  const VnmConfig fmt = a.config();
  const std::vector<bool> live = live_rows(a, mode);
  std::size_t count = 0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t g = 0; g < a.groups_per_row(); ++g)
      for (std::size_t j = 0; j < fmt.n; ++j) {
        if (!a.value(r, g, j).is_zero()) continue;
        const std::uint8_t mi = a.m_index(r, g, j);
        count += !live[g * fmt.m + (mode == spatha::ColumnLocMode::kFixed
                                        ? mi
                                        : a.column_loc(r / fmt.v, g, mi))];
      }
  return count;
}

/// A random K x width B whose rows selected by no nonzero slot of `a`
/// cycle through `specials` (only zero-valued slots, or none, select
/// them).
inline HalfMatrix poisoned_b(const VnmMatrix& a, spatha::ColumnLocMode mode,
                             std::size_t width, std::uint64_t seed,
                             const std::vector<float>& specials) {
  Rng rng(seed);
  HalfMatrix b = random_half_matrix(a.cols(), width, rng);
  const std::vector<bool> live = live_rows(a, mode);
  for (std::size_t k = 0; k < a.cols(); ++k)
    if (!live[k])
      for (std::size_t n = 0; n < width; ++n)
        b(k, n) = half_t(specials[(k + n) % specials.size()]);
  return b;
}

/// +Inf, -Inf and NaN times a zero weight is NaN, so a kernel that does
/// not skip zero-valued slots the way the oracles do writes NaN where the
/// oracle writes a finite value; -0 checks that signed zeros pass.
inline std::vector<float> non_finite_specials() {
  return {std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::quiet_NaN(), -0.0f};
}

}  // namespace venom::test_geometry
