/**
 * @file
 * Per-process page table: virtual page -> physical page, with lazy
 * allocation from the kernel's physical-frame allocator. A small
 * direct-mapped translation cache in front of the map keeps the
 * per-access cost down on the simulator's hot path; remap()
 * invalidates the affected entry, so the cache is never stale.
 */

#ifndef LOGTM_OS_PAGE_TABLE_HH
#define LOGTM_OS_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hh"

namespace logtm {

class PageTable
{
  public:
    /** @param alloc_frame returns a fresh physical page number. */
    explicit PageTable(std::function<uint64_t()> alloc_frame)
        : allocFrame_(std::move(alloc_frame))
    {
    }

    /** Translate a virtual address, allocating the page on demand. */
    PhysAddr
    translate(VirtAddr va)
    {
        const uint64_t vpage = pageNumber(va);
        TlbEntry &slot = tlb_[vpage & (tlbEntries - 1)];
        if (slot.vpage == vpage) [[likely]]
            return (slot.ppage << pageBytesLog2) | pageOffset(va);
        auto it = map_.find(vpage);
        uint64_t ppage;
        if (it == map_.end()) {
            ppage = allocFrame_();
            map_.emplace(vpage, ppage);
        } else {
            ppage = it->second;
        }
        slot.vpage = vpage;
        slot.ppage = ppage;
        return (ppage << pageBytesLog2) | pageOffset(va);
    }

    /** Current mapping of @p vpage; ~0 if unmapped. */
    uint64_t
    lookup(uint64_t vpage) const
    {
        auto it = map_.find(vpage);
        return it == map_.end() ? ~0ull : it->second;
    }

    /** Remap @p vpage to @p new_ppage (page relocation). */
    void
    remap(uint64_t vpage, uint64_t new_ppage)
    {
        map_[vpage] = new_ppage;
        TlbEntry &slot = tlb_[vpage & (tlbEntries - 1)];
        if (slot.vpage == vpage)
            slot = TlbEntry{};
    }

    size_t mappedPages() const { return map_.size(); }

  private:
    static constexpr uint64_t tlbEntries = 64;

    struct TlbEntry
    {
        uint64_t vpage = ~0ull;  ///< ~0 = empty (no page has vpage ~0)
        uint64_t ppage = 0;
    };

    std::function<uint64_t()> allocFrame_;
    std::unordered_map<uint64_t, uint64_t> map_;
    std::array<TlbEntry, tlbEntries> tlb_{};
};

} // namespace logtm

#endif // LOGTM_OS_PAGE_TABLE_HH
