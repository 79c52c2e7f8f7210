#include "transformer/attention_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "transformer/attention_kernels.hpp"
#include "transformer/kv_cache.hpp"
#include "transformer/ops.hpp"

namespace venom::transformer {

namespace {

/// One sequence as the core sees it: its columns [s0, s0 + n) of the
/// projections, preceded by `base` positions resident in a ring of
/// capacity `cap` (none in a full forward).
struct SeqView {
  std::size_t seq = 0, s0 = 0, n = 0, base = 0, cap = 0;
  const HalfMatrix* k_ring = nullptr;
  const HalfMatrix* v_ring = nullptr;
};

/// The parts of one call every tile shares.
struct CoreCall {
  const AttentionCoreArgs& args;
  const AttentionCoreOutputs& out;
  std::size_t dh;
  float scale;

  /// First key position query position p sees.
  std::size_t lo(std::size_t p) const {
    const std::size_t w = args.mask.window;
    return args.mask.causal && w != 0 && p + 1 > w ? p + 1 - w : 0;
  }
  /// One past the last key position query position p sees.
  std::size_t hi(const SeqView& sv, std::size_t p) const {
    return args.mask.causal ? p + 1 : sv.base + sv.n;
  }
};

/// Key panel row: converts positions [a, b) of K's hidden row r to fp32.
/// Positions below sv.base come out of the ring (at most two contiguous
/// slot spans), the rest straight from the projection's columns.
void load_key_row(const SeqView& sv, const HalfMatrix& k, std::size_t r,
                  std::size_t a, std::size_t b, float* dst) {
  std::size_t pos = a;
  const std::size_t ring_end = std::min(b, sv.base);
  while (pos < ring_end) {
    const std::size_t slot = pos % sv.cap;
    const std::size_t len = std::min(ring_end - pos, sv.cap - slot);
    half_to_float_n(sv.k_ring->data() + r * sv.cap + slot, dst + (pos - a),
                    len);
    pos += len;
  }
  if (pos < b)
    half_to_float_n(k.data() + r * k.cols() + sv.s0 + (pos - sv.base),
                    dst + (pos - a), b - pos);
}

/// Transposed value panel vt(j, d) = V(row0 + d, position a + j) for
/// positions [a, b), in fp32: ring positions are already rows of the V
/// ring; the chunk's own columns are widened and transposed in one pass.
void load_values(const SeqView& sv, const HalfMatrix& v, std::size_t row0,
                 std::size_t dh, std::size_t a, std::size_t b, float* vt) {
  std::size_t pos = a;
  for (; pos < std::min(b, sv.base); ++pos)
    half_to_float_n(sv.v_ring->data() + (pos % sv.cap) * v.rows() + row0,
                    vt + (pos - a) * dh, dh);
  if (pos < b)
    half_to_float_transposed(
        v.data() + row0 * v.cols() + sv.s0 + (pos - sv.base), v.cols(), dh,
        b - pos, vt + (pos - a) * dh);
}

/// Queries [i0, i1) of one (sequence, head). The keys the block sees are
/// converted one tile of kAttentionKeyTile positions at a time — the key
/// panel for the scores, then the transposed value panel for the context
/// — and every query runs only over its live keys in each tile.
void run_tile(const CoreCall& c, const SeqView& sv, std::size_t h,
              std::size_t i0, std::size_t i1, ops::AttentionScratch& s) {
  const AttentionCoreArgs& a = c.args;
  const std::size_t dh = c.dh, nq = i1 - i0, row0 = h * dh;
  const std::size_t klo = c.lo(sv.base + i0);
  const std::size_t khi = c.hi(sv, sv.base + i1 - 1);
  const std::size_t nk = khi - klo;
  // Query i's first live key `lo` and its live keys [a, b) within the key
  // tile [k0, k1); its score row holds keys lo, lo + 1, ... from offset 0.
  struct Live {
    std::size_t lo, a, b;
  };
  const auto live = [&](std::size_t i, std::size_t k0, std::size_t k1) {
    const std::size_t p = sv.base + i0 + i, lo = c.lo(p);
    return Live{lo, std::max(lo, k0), std::min(c.hi(sv, p), k1)};
  };

  s.qf.resize(dh * nq);
  s.kf.resize(dh * kAttentionKeyTile);
  s.scores.resize(nq * nk);
  for (std::size_t d = 0; d < dh; ++d)
    half_to_float_n(a.q.data() + (row0 + d) * a.q.cols() + sv.s0 + i0,
                    s.qf.data() + d * nq, nq);
  for (std::size_t k0 = klo; k0 < khi; k0 += kAttentionKeyTile) {
    const std::size_t k1 = std::min(khi, k0 + kAttentionKeyTile);
    for (std::size_t d = 0; d < dh; ++d)
      load_key_row(sv, a.k, row0 + d, k0, k1,
                   s.kf.data() + d * (k1 - k0));
    for (std::size_t i = 0; i < nq; ++i) {
      const Live l = live(i, k0, k1);
      if (l.a >= l.b) continue;
      detail::score_row(s.qf.data() + i, nq, s.kf.data() + (l.a - k0),
                        k1 - k0, dh, l.b - l.a, c.scale,
                        s.scores.data() + i * nk + (l.a - l.lo));
    }
  }

  for (std::size_t i = 0; i < nq; ++i) {
    const Live l = live(i, klo, khi);
    detail::softmax_row(s.scores.data() + i * nk, l.b - l.lo);
  }
  if (c.out.probs != nullptr) {
    FloatMatrix& pm = (*c.out.probs)[h * a.seq_ends.size() + sv.seq];
    for (std::size_t i = 0; i < nq; ++i) {
      const Live l = live(i, klo, khi);
      std::copy_n(s.scores.data() + i * nk, l.b - l.lo, &pm(i0 + i, l.lo));
    }
  }

  if (c.out.context == nullptr) return;
  s.vt.resize(kAttentionKeyTile * dh);
  s.acc.assign(nq * dh, 0.0f);
  for (std::size_t k0 = klo; k0 < khi; k0 += kAttentionKeyTile) {
    const std::size_t k1 = std::min(khi, k0 + kAttentionKeyTile);
    load_values(sv, a.v, row0, dh, k0, k1, s.vt.data());
    for (std::size_t i = 0; i < nq; ++i) {
      const Live l = live(i, k0, k1);
      if (l.a >= l.b) continue;
      detail::context_row(s.scores.data() + i * nk + (l.a - l.lo), l.b - l.a,
                          s.vt.data() + (l.a - k0) * dh, dh, dh,
                          s.acc.data() + i * dh);
    }
  }
  HalfMatrix& context = *c.out.context;
  for (std::size_t i = 0; i < nq; ++i)
    for (std::size_t d = 0; d < dh; ++d)
      context(row0 + d, sv.s0 + i0 + i) = half_t(s.acc[i * dh + d]);
}

void check_sequences(std::span<const std::size_t> seq_ends, std::size_t t) {
  VENOM_CHECK_MSG(!seq_ends.empty() && seq_ends.back() == t,
                  "sequence ends must cover all " << t << " tokens");
  for (std::size_t i = 0; i + 1 < seq_ends.size(); ++i)
    VENOM_CHECK_MSG(seq_ends[i] < seq_ends[i + 1],
                    "sequence ends must be strictly increasing");
  VENOM_CHECK_MSG(seq_ends.front() > 0, "empty leading sequence");
}

}  // namespace

void attention_core(const AttentionCoreArgs& a,
                    const AttentionCoreOutputs& out, ops::ExecContext& ctx) {
  const std::size_t hidden = a.q.rows(), tokens = a.q.cols();
  VENOM_CHECK_MSG(a.heads > 0 && hidden % a.heads == 0,
                  "hidden " << hidden << " not divisible by heads "
                            << a.heads);
  VENOM_CHECK(a.k.rows() == hidden && a.v.rows() == hidden &&
              a.k.cols() == tokens && a.v.cols() == tokens);
  if (tokens == 0) {  // attention over nothing is nothing
    VENOM_CHECK_MSG(!a.seq_ends.empty() && a.seq_ends.back() == 0,
                    "sequence ends must cover all 0 tokens");
    if (out.context != nullptr) out.context->resize(hidden, 0);
    if (out.probs != nullptr) out.probs->clear();
    return;
  }
  check_sequences(a.seq_ends, tokens);
  const std::size_t nseq = a.seq_ends.size();
  if (!a.caches.empty()) {
    VENOM_CHECK_MSG(a.caches.size() == nseq,
                    "one KvCache per sequence: got " << a.caches.size()
                                                     << " caches for "
                                                     << nseq << " sequences");
    VENOM_CHECK_MSG(a.mask.causal, "KV rings need a causal mask");
    VENOM_CHECK_MSG(out.probs == nullptr,
                    "probabilities are a full-forward output");
  }
  const std::size_t dh = hidden / a.heads;
  const CoreCall c{a, out, dh, 1.0f / std::sqrt(float(dh))};
  if (out.context != nullptr) out.context->resize(hidden, tokens);
  if (out.probs != nullptr) {
    out.probs->clear();
    for (std::size_t h = 0; h < a.heads; ++h) {
      std::size_t s0 = 0;
      for (const std::size_t s1 : a.seq_ends) {
        out.probs->emplace_back(s1 - s0, s1 - s0, 0.0f);
        s0 = s1;
      }
    }
  }

  std::size_t s0 = 0;
  for (std::size_t seq = 0; seq < nseq; ++seq) {
    SeqView sv;
    sv.seq = seq;
    sv.s0 = s0;
    sv.n = a.seq_ends[seq] - s0;
    s0 = a.seq_ends[seq];
    if (!a.caches.empty()) {
      const KvCache* cache = a.caches[seq];
      VENOM_CHECK_MSG(cache != nullptr, "null KvCache for sequence " << seq);
      VENOM_CHECK_MSG(cache->hidden() == hidden && a.layer < cache->layers(),
                      "KvCache shape (" << cache->layers()
                                        << " layers, hidden "
                                        << cache->hidden()
                                        << ") does not fit layer " << a.layer
                                        << " of hidden " << hidden);
      sv.base = cache->layer_length(a.layer);
      sv.cap = cache->capacity();
      sv.k_ring = &cache->k_ring(a.layer);
      sv.v_ring = &cache->v_ring(a.layer);
      const std::size_t resident = sv.base > sv.cap ? sv.base - sv.cap : 0;
      VENOM_CHECK_MSG(c.lo(sv.base) >= resident,
                      "position " << sv.base << " attends to position "
                                  << c.lo(sv.base)
                                  << ", which the ring (capacity " << sv.cap
                                  << ") no longer holds");
    }

    const std::size_t blocks =
        (sv.n + kAttentionQueryBlock - 1) / kAttentionQueryBlock;
    const std::size_t tiles = a.heads * blocks;
    const auto tile = [&](std::size_t t, ops::AttentionScratch& s) {
      // Heaviest block first: under a causal mask later queries see more
      // keys, and the pool hands tiles out in index order.
      const std::size_t h = t / blocks, b = blocks - 1 - t % blocks;
      run_tile(c, sv, h, b * kAttentionQueryBlock,
               std::min(sv.n, (b + 1) * kAttentionQueryBlock), s);
    };
    // Every live (query, key) pair costs dh multiply-adds in the scores
    // and dh in the context, per head.
    std::size_t pairs = 0;
    for (std::size_t p = sv.base; p < sv.base + sv.n; ++p)
      pairs += c.hi(sv, p) - c.lo(p);
    const std::size_t macs = 2 * pairs * dh * a.heads;

    ThreadPool& pool = ctx.pool();
    if (macs >= kAttentionParallelMacs && pool.size() > 1 && tiles > 1) {
      pool.parallel_for_chunks(
          tiles,
          [&](std::size_t begin, std::size_t end) {
            auto scratch = ctx.attention_scratch().acquire();
            for (std::size_t t = begin; t < end; ++t) tile(t, *scratch);
          },
          1);
    } else {
      auto scratch = ctx.attention_scratch().acquire();
      for (std::size_t t = 0; t < tiles; ++t) tile(t, *scratch);
    }
  }
}

HalfMatrix attention_reference(const HalfMatrix& q, const HalfMatrix& k,
                               const HalfMatrix& v,
                               std::span<const std::size_t> seq_ends,
                               std::size_t heads, AttentionMask mask) {
  const std::size_t hidden = q.rows();
  VENOM_CHECK(heads > 0 && hidden % heads == 0);
  VENOM_CHECK(k.rows() == hidden && v.rows() == hidden &&
              k.cols() == q.cols() && v.cols() == q.cols());
  check_sequences(seq_ends, q.cols());
  const std::size_t dh = hidden / heads;
  const float scale = 1.0f / std::sqrt(float(dh));
  HalfMatrix context(hidden, q.cols());
  HalfMatrix qh(dh, 1);
  std::size_t s0 = 0;
  for (const std::size_t s1 : seq_ends) {
    for (std::size_t h = 0; h < heads; ++h)
      for (std::size_t i = 0; i < s1 - s0; ++i) {
        const std::size_t lo =
            mask.causal && mask.window != 0 && i + 1 > mask.window
                ? i + 1 - mask.window
                : 0;
        const std::size_t hi = mask.causal ? i + 1 : s1 - s0;
        HalfMatrix kh(dh, hi - lo), vh(dh, hi - lo);
        for (std::size_t d = 0; d < dh; ++d) {
          qh(d, 0) = q(h * dh + d, s0 + i);
          for (std::size_t j = lo; j < hi; ++j) {
            kh(d, j - lo) = k(h * dh + d, s0 + j);
            vh(d, j - lo) = v(h * dh + d, s0 + j);
          }
        }
        FloatMatrix scores = attention_scores_reference(qh, kh, scale);
        softmax_rows(scores);
        const HalfMatrix ctx = attention_context_reference(scores, vh);
        for (std::size_t d = 0; d < dh; ++d)
          context(h * dh + d, s0 + i) = ctx(d, 0);
      }
    s0 = s1;
  }
  return context;
}

}  // namespace venom::transformer
