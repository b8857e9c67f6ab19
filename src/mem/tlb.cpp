#include "mem/tlb.hpp"

#include "util/check.hpp"

namespace cni::mem {

PageNum PageTable::frame_of(PageNum vpn) {
  if (const PageNum* ppn = va_to_pa_.find(vpn); ppn != nullptr) return *ppn;
  const PageNum ppn = next_frame_++;
  va_to_pa_.insert(vpn, ppn);
  pa_to_va_.insert(ppn, vpn);
  return ppn;
}

PAddr PageTable::translate(VAddr va) {
  const PageNum ppn = frame_of(geo_.page_of(va));
  return geo_.base_of(ppn) | geo_.offset_of(va);
}

std::optional<PageNum> PageTable::vpn_of(PageNum ppn) const {
  const PageNum* vpn = pa_to_va_.find(ppn);
  if (vpn == nullptr) return std::nullopt;
  return *vpn;
}

Tlb::Tlb(std::size_t entries, std::uint32_t miss_penalty_cycles)
    : size_(entries), miss_penalty_(miss_penalty_cycles) {
  CNI_CHECK(entries > 0);
}

}  // namespace cni::mem
