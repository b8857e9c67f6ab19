#include "mem/cache.hpp"

#include <bit>

#include "util/units.hpp"

namespace cni::mem {

CacheModel::CacheModel(const CacheParams& p) : params_(p) {
  CNI_CHECK(util::is_pow2(p.line_size));
  CNI_CHECK_MSG(p.line_size >= 4, "the line encoding needs two free address bits");
  CNI_CHECK(util::is_pow2(p.l1_size) && p.l1_size % p.line_size == 0);
  CNI_CHECK(util::is_pow2(p.l2_size) && p.l2_size % p.line_size == 0);
  line_shift_ = static_cast<unsigned>(std::countr_zero(p.line_size));
  l2_mask_ = p.l2_size / p.line_size - 1;
}

CacheAccess CacheModel::miss(PAddr line, bool is_write) {
  if (l2_.empty()) {
    l1_mask_ = params_.l1_size / params_.line_size - 1;
    l1_.assign(l1_mask_ + 1, 0);
    l2_.resize(l2_mask_ + 1);
  }
  Line& e1 = l1_[l1_index(line)];
  CacheAccess r;
  Line& e2 = l2_[l2_index(line)];
  if (holds(e2, line)) {
    ++l2_hits_;
    r.l2_hit = true;
    r.cpu_cycles = params_.l2_latency_cycles;
  } else {
    // Memory fill. A dirty L2 victim is written back to memory first.
    r.cpu_cycles = params_.l2_latency_cycles + params_.memory_latency_cycles;
    if (dirty(e2)) {
      ++writebacks_;
      r.wrote_back = true;
      r.writeback_line = line_addr(e2);
    }
    e2 = line | kValid;
  }

  // Fill L1; a dirty L1 victim folds into L2 (inclusive hierarchy), possibly
  // displacing and writing back *that* L2 victim. To keep the model simple we
  // only surface one write-back per access: the L1 victim lands in L2 and the
  // L2 victim (if dirty) goes to memory — which is the one the bus sees.
  if (dirty(e1)) {
    const PAddr victim = line_addr(e1);
    Line& v2 = l2_[l2_index(victim)];
    if (holds(v2, victim)) {
      v2 |= kDirty;
    } else {
      // L1 victim no longer in L2: its write-back goes straight to memory.
      ++writebacks_;
      if (!r.wrote_back) {
        r.wrote_back = true;
        r.writeback_line = victim;
      }
    }
  }
  e1 = line | kValid;
  if (is_write) store(e1, line, r);
  return r;
}

std::vector<PAddr> CacheModel::flush_range(PAddr addr, std::uint64_t len,
                                           std::uint64_t* cycles) {
  std::vector<PAddr> flushed;
  if (len == 0) return flushed;
  std::uint64_t cost = 0;
  for (PAddr line = line_addr(addr); line <= line_addr(addr + len - 1);
       line += params_.line_size) {
    // Probing a line costs one L1 lookup; flushing a dirty one costs the L2
    // latency (the write drains through the hierarchy to the bus).
    cost += params_.l1_latency_cycles;
    if (l2_.empty()) continue;  // nothing was ever filled
    bool was_dirty = false;
    for (Line* e : {&l1_[l1_index(line)], &l2_[l2_index(line)]}) {
      if (*e == (line | kValid | kDirty)) {
        *e = line | kValid;
        was_dirty = true;
      }
    }
    if (was_dirty) {
      ++writebacks_;
      cost += params_.l2_latency_cycles;
      flushed.push_back(line);
    }
  }
  if (cycles != nullptr) *cycles += cost;
  return flushed;
}

void CacheModel::invalidate_range(PAddr addr, std::uint64_t len) {
  if (len == 0 || l2_.empty()) return;  // without an L2 no line is valid
  for (PAddr line = line_addr(addr); line <= line_addr(addr + len - 1);
       line += params_.line_size) {
    for (Line* e : {&l1_[l1_index(line)], &l2_[l2_index(line)]}) {
      if (holds(*e, line)) *e = 0;
    }
  }
}

}  // namespace cni::mem
