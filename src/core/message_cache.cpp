#include "core/message_cache.hpp"

#include "util/check.hpp"

namespace cni::core {

MessageCache::MessageCache(mem::PageGeometry geometry, std::uint64_t capacity_bytes)
    : geo_(geometry) {
  const std::uint64_t n = capacity_bytes / geo_.size();
  CNI_CHECK_MSG(n >= 1, "Message Cache smaller than one page buffer");
  buffers_.resize(n);
}

bool MessageCache::contains(mem::VAddr va, std::uint64_t len) const {
  if (len == 0) len = 1;
  const mem::PageNum first = geo_.page_of(va);
  const mem::PageNum last = geo_.page_of(va + len - 1);
  for (mem::PageNum p = first; p <= last; ++p) {
    if (map_.find(p) == nullptr) return false;
  }
  return true;
}

bool MessageCache::lookup_tx(mem::VAddr va, std::uint64_t len) {
  ++tx_lookups_;
  if (!contains(va, len)) return false;
  ++tx_hits_;
  // Touch every page so the clock sweep sees recent use.
  if (len == 0) len = 1;
  const mem::PageNum first = geo_.page_of(va);
  const mem::PageNum last = geo_.page_of(va + len - 1);
  for (mem::PageNum p = first; p <= last; ++p) {
    buffers_[*map_.find(p)].referenced = true;
  }
  return true;
}

void MessageCache::bind_page(mem::PageNum vpn) {
  if (const std::uint32_t* idx = map_.find(vpn); idx != nullptr) {
    buffers_[*idx].referenced = true;
    return;
  }
  // Clock sweep: first pass clears reference bits; a buffer with its bit
  // already clear (or an unbound buffer) is the victim.
  for (;;) {
    Buffer& b = buffers_[clock_hand_];
    const auto idx = static_cast<std::uint32_t>(clock_hand_);
    clock_hand_ = (clock_hand_ + 1) % buffers_.size();
    if (!b.valid) {
      b.valid = true;
      b.vpn = vpn;
      b.referenced = true;
      map_.insert(vpn, idx);
      return;
    }
    if (b.referenced) {
      b.referenced = false;
      continue;
    }
    // Evict.
    ++evictions_;
    map_.erase(b.vpn);
    b.vpn = vpn;
    b.referenced = true;
    map_.insert(vpn, idx);
    return;
  }
}

void MessageCache::insert(mem::VAddr va, std::uint64_t len) {
  if (len == 0) len = 1;
  ++inserts_;
  const mem::PageNum first = geo_.page_of(va);
  const mem::PageNum last = geo_.page_of(va + len - 1);
  for (mem::PageNum p = first; p <= last; ++p) bind_page(p);
}

bool MessageCache::snoop_write(mem::VAddr va, std::uint64_t len) {
  if (len == 0) len = 1;
  const mem::PageNum first = geo_.page_of(va);
  const mem::PageNum last = geo_.page_of(va + len - 1);
  bool updated = false;
  for (mem::PageNum p = first; p <= last; ++p) {
    if (const std::uint32_t* idx = map_.find(p); idx != nullptr) {
      buffers_[*idx].referenced = true;
      updated = true;
    }
  }
  if (updated) ++snoop_updates_;
  return updated;
}

}  // namespace cni::core
