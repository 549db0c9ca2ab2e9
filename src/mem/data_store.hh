/**
 * @file
 * Functional data values for the simulated physical memory, at 8-byte
 * word granularity. Timing is modelled by the protocol; values are
 * read and written here when memory operations complete, which is what
 * lets the test suite verify undo-log roll-back, isolation and
 * atomicity functionally (DESIGN.md §1).
 *
 * Storage is page-granular: each touched physical page gets a flat
 * 512-word array plus a written-word bitmap, and pages are reached
 * through a dense direct-mapped table for low page numbers (the
 * common case — workloads allocate from low physical frames) with a
 * sparse map fallback above it. This keeps load/store on the
 * simulator's hottest path down to a shift, a bounds check and an
 * array index instead of a hash probe per word.
 *
 * Semantics match the original word-map exactly: never-written words
 * read as 0, footprintWords() counts words ever written, and
 * copyPage() overwrites the destination page's words with the
 * source's, erasing destination words the source never wrote
 * (docs/PERFORMANCE.md).
 */

#ifndef LOGTM_MEM_DATA_STORE_HH
#define LOGTM_MEM_DATA_STORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace logtm {

class DataStore
{
  public:
    static constexpr uint64_t wordsPerPage = pageBytes / 8;
    static constexpr uint64_t bitmapWords = wordsPerPage / 64;
    /** Pages below this number use the dense direct-mapped table
     *  (grown on demand); higher pages fall back to the sparse map. */
    static constexpr uint64_t densePageLimit = 1ull << 16;

    DataStore() = default;
    DataStore(const DataStore &) = delete;
    DataStore &operator=(const DataStore &) = delete;

    /** Read the 8-byte word at @p addr (must be 8-byte aligned).
     *  Words never written read as 0. */
    uint64_t
    load(PhysAddr addr) const
    {
        logtm_assert((addr & 7) == 0, "unaligned word load");
        const Page *page = findPage(addr >> pageBytesLog2);
        if (!page)
            return 0;
        return page->words[wordIndex(addr)];
    }

    /** Write the 8-byte word at @p addr. */
    void
    store(PhysAddr addr, uint64_t value)
    {
        logtm_assert((addr & 7) == 0, "unaligned word store");
        Page &page = getPage(addr >> pageBytesLog2);
        const uint64_t w = wordIndex(addr);
        page.words[w] = value;
        const uint64_t mask = 1ull << (w & 63);
        uint64_t &bits = page.written[w >> 6];
        if (!(bits & mask)) {
            bits |= mask;
            ++page.populated;
            ++footprint_;
        }
    }

    /** Number of words ever written (footprint stat). */
    size_t footprintWords() const { return footprint_; }

    /**
     * Copy all words of physical page @p from_page to @p to_page
     * (page relocation support, paper §4.2).
     */
    void copyPage(uint64_t from_page, uint64_t to_page);

    /**
     * Every word ever written, as (address, value) pairs in ascending
     * address order (deterministic). Off the hot path — built for the
     * durability layer's whole-image comparisons (src/pm,
     * tests/test_recovery.cc).
     */
    std::vector<std::pair<PhysAddr, uint64_t>> snapshotWords() const;

  private:
    struct Page
    {
        /** Zero-initialised so unwritten words naturally read as 0. */
        std::array<uint64_t, wordsPerPage> words{};
        /** One bit per word ever written (footprint / copy-erase). */
        std::array<uint64_t, bitmapWords> written{};
        uint32_t populated = 0;
    };

    static uint64_t
    wordIndex(PhysAddr addr)
    {
        return (addr & (pageBytes - 1)) >> 3;
    }

    const Page *findPage(uint64_t page_num) const;
    Page &getPage(uint64_t page_num);

    /** Direct-mapped table for page numbers < densePageLimit. */
    std::vector<std::unique_ptr<Page>> dense_;
    /** Fallback for sparse high physical pages. */
    std::unordered_map<uint64_t, std::unique_ptr<Page>> sparse_;
    size_t footprint_ = 0;
};

} // namespace logtm

#endif // LOGTM_MEM_DATA_STORE_HH
