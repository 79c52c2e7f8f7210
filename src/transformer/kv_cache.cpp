#include "transformer/kv_cache.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace venom::transformer {

KvCache::KvCache(std::size_t layers, std::size_t hidden, std::size_t capacity)
    : hidden_(hidden), capacity_(capacity) {
  VENOM_CHECK_MSG(layers >= 1 && hidden >= 1 && capacity >= 1,
                  "KvCache needs positive layers/hidden/capacity, got "
                      << layers << '/' << hidden << '/' << capacity);
  layers_.resize(layers);
  for (LayerKv& l : layers_) {
    l.k = HalfMatrix(hidden, capacity);
    l.v = HalfMatrix(capacity, hidden);
  }
}

std::size_t KvCache::layer_length(std::size_t l) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  return layers_[l].length;
}

bool KvCache::synchronized() const {
  for (const LayerKv& l : layers_)
    if (l.length != layers_.front().length) return false;
  return true;
}

void KvCache::reset() {
  for (LayerKv& l : layers_) l.length = 0;
}

std::size_t KvCache::append(std::size_t l, const HalfMatrix& k,
                            const HalfMatrix& v, std::size_t src) {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  VENOM_CHECK(k.rows() == hidden_ && v.rows() == hidden_ && src < k.cols() &&
              src < v.cols());
  LayerKv& kv = layers_[l];
  const std::size_t p = kv.length++;
  const std::size_t slot = p % capacity_;
  for (std::size_t r = 0; r < hidden_; ++r) {
    kv.k(r, slot) = k(r, src);
    kv.v(slot, r) = v(r, src);
  }
  return p;
}

const HalfMatrix& KvCache::k_ring(std::size_t l) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  return layers_[l].k;
}

const HalfMatrix& KvCache::v_ring(std::size_t l) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  return layers_[l].v;
}

void KvCache::check_resident(std::size_t l, std::size_t row0,
                             std::size_t dh, std::size_t lo,
                             std::size_t w) const {
  VENOM_CHECK_MSG(l < layers_.size(),
                  "layer " << l << " out of " << layers_.size());
  const std::size_t layer_len = layers_[l].length;
  VENOM_CHECK_MSG(w >= 1 && w <= capacity_ && lo + w <= layer_len &&
                      lo + capacity_ >= layer_len,
                  "gather [" << lo << ", " << lo + w
                             << ") not resident (length " << layer_len
                             << ", capacity " << capacity_ << ")");
  VENOM_CHECK(row0 + dh <= hidden_);
}

void KvCache::gather_k(std::size_t l, std::size_t row0, std::size_t dh,
                       std::size_t lo, std::size_t w, HalfMatrix& out) const {
  check_resident(l, row0, dh, lo, w);
  out.resize(dh, w);
  // Rows are contiguous along the slot axis, so each head row is at most
  // two memcpy spans: [lo % cap, cap) then the wrapped prefix.
  const HalfMatrix& ring = layers_[l].k;
  const std::size_t s0 = lo % capacity_;
  const std::size_t first = std::min(w, capacity_ - s0);
  for (std::size_t d = 0; d < dh; ++d) {
    const half_t* src = &ring(row0 + d, 0);
    half_t* dst = &out(d, 0);
    std::memcpy(dst, src + s0, first * sizeof(half_t));
    if (first < w)
      std::memcpy(dst + first, src, (w - first) * sizeof(half_t));
  }
}

void KvCache::gather_v(std::size_t l, std::size_t row0, std::size_t dh,
                       std::size_t lo, std::size_t w, HalfMatrix& out) const {
  check_resident(l, row0, dh, lo, w);
  out.resize(dh, w);
  const HalfMatrix& ring = layers_[l].v;
  for (std::size_t j = 0; j < w; ++j) {
    const half_t* src = &ring((lo + j) % capacity_, row0);
    for (std::size_t d = 0; d < dh; ++d) out(d, j) = src[d];
  }
}

}  // namespace venom::transformer
