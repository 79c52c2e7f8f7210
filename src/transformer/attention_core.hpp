// The multi-head attention core: scores -> softmax -> context for every
// (sequence, head) of packed Q/K/V projections. MultiHeadAttention's full
// forward, cached (KV-ring) forward and backward recomputation all run
// through this one function.
//
// Keys. A sequence's keys are its own K/V columns, preceded — in the
// cached forward — by the positions resident in its KV ring. Both are
// read in place: the ring through KvCache::k_ring/v_ring, the new chunk
// straight from the projections. The chunk is not appended first, since
// once the ring is full that would overwrite keys the chunk's early
// queries still need; the caller appends after the core returns.
//
// Mask. Query position p sees keys [lo(p), hi(p)]: the whole sequence
// when bidirectional; [0, p] when causal; [p + 1 - w, p] (clamped at 0)
// with a causal window w. Keys outside that range are skipped in every
// stage — never scored, softmaxed or multiplied — so a non-finite value
// at a masked position cannot leak into a query that does not see it.
//
// Numerics. Each query's output is bit-identical to composing the public
// ops for that query alone: attention_scores over its live keys,
// softmax_rows, then attention_context (and so to the *_reference
// oracles). For finite inputs that is also bit-identical to the
// full-matrix form that writes -1e30 into masked scores: those entries
// contribute exact zeros to the softmax sum and to the context.
//
// Tiling and threads. Queries are processed in blocks of
// kAttentionQueryBlock. A block converts the fp16 keys and values it sees
// to fp32 once, kAttentionKeyTile positions at a time (a key panel, then
// a transposed value panel), and keeps one score row per query, so
// scratch is O(block x window) per worker, pooled in
// ExecContext::attention_scratch(). A sequence whose multiply-add count
// reaches kAttentionParallelMacs fans its (head, query block) tiles out
// over the context's pool; smaller ones — one-token decode steps, short
// encode batches — stay on the calling thread, where a pool wake-up would
// cost more CPU than it saves. The result does not depend on the thread
// count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ops/context.hpp"
#include "tensor/matrix.hpp"

namespace venom::transformer {

class KvCache;

/// Queries per tile of the attention core, and key positions per
/// converted K / V panel within a tile.
constexpr std::size_t kAttentionQueryBlock = 16;
constexpr std::size_t kAttentionKeyTile = 64;

/// Multiply-adds (scores + context, all heads) at which one sequence's
/// tiles fan out over the thread pool.
constexpr std::size_t kAttentionParallelMacs = std::size_t(1) << 22;

/// Which keys a query may attend to.
struct AttentionMask {
  bool causal = false;
  std::size_t window = 0;  ///< causal sliding window; 0 = unbounded
};

/// Inputs of one core call: (hidden x T) projections of sequences packed
/// along the token axis, `seq_ends` holding each sequence's exclusive end
/// column (strictly increasing, the last == T).
struct AttentionCoreArgs {
  const HalfMatrix& q;
  const HalfMatrix& k;
  const HalfMatrix& v;
  std::span<const std::size_t> seq_ends;
  std::size_t heads = 1;
  AttentionMask mask = {};
  /// Empty, or one KV ring per sequence (causal masks only): the positions
  /// layer `layer` of the ring has appended precede the sequence's own
  /// columns, and must include every key its first query sees.
  std::span<KvCache* const> caches = {};
  std::size_t layer = 0;
};

/// What the core writes; any subset.
struct AttentionCoreOutputs {
  /// (hidden x T) context, head h in rows [h*dh, (h+1)*dh); null skips
  /// the context stage.
  HalfMatrix* context = nullptr;
  /// Probability matrices, one (n x n) per (head, sequence), head-major,
  /// masked entries zero. Only without KV rings.
  std::vector<FloatMatrix>* probs = nullptr;
};

void attention_core(const AttentionCoreArgs& args,
                    const AttentionCoreOutputs& out, ops::ExecContext& ctx);

/// The core's oracle: per (head, sequence, query), the *_reference ops
/// composed over that query's live keys. Full forward only (no rings);
/// returns the (hidden x T) context.
HalfMatrix attention_reference(const HalfMatrix& q, const HalfMatrix& k,
                               const HalfMatrix& v,
                               std::span<const std::size_t> seq_ends,
                               std::size_t heads, AttentionMask mask);

}  // namespace venom::transformer
