#include "mem/data_store.hh"

#include <algorithm>

namespace logtm {

const DataStore::Page *
DataStore::findPage(uint64_t page_num) const
{
    if (page_num < densePageLimit) {
        if (page_num >= dense_.size())
            return nullptr;
        return dense_[page_num].get();
    }
    auto it = sparse_.find(page_num);
    return it == sparse_.end() ? nullptr : it->second.get();
}

DataStore::Page &
DataStore::getPage(uint64_t page_num)
{
    if (page_num < densePageLimit) {
        if (page_num >= dense_.size())
            dense_.resize(page_num + 1);
        auto &slot = dense_[page_num];
        if (!slot)
            slot = std::make_unique<Page>();
        return *slot;
    }
    auto &slot = sparse_[page_num];
    if (!slot)
        slot = std::make_unique<Page>();
    return *slot;
}

void
DataStore::copyPage(uint64_t from_page, uint64_t to_page)
{
    const Page *src = findPage(from_page);
    Page *dst = const_cast<Page *>(findPage(to_page));
    if (!src && !dst)
        return;
    if (src && !dst)
        dst = &getPage(to_page);

    for (uint64_t w = 0; w < wordsPerPage; ++w) {
        const uint64_t mask = 1ull << (w & 63);
        const bool src_has = src && (src->written[w >> 6] & mask);
        uint64_t &bits = dst->written[w >> 6];
        if (src_has) {
            dst->words[w] = src->words[w];
            if (!(bits & mask)) {
                bits |= mask;
                ++dst->populated;
                ++footprint_;
            }
        } else if (bits & mask) {
            // Source never wrote this word: erase it at the
            // destination so it reads as 0 again, matching the old
            // word-map semantics.
            dst->words[w] = 0;
            bits &= ~mask;
            --dst->populated;
            --footprint_;
        }
    }
}

std::vector<std::pair<PhysAddr, uint64_t>>
DataStore::snapshotWords() const
{
    std::vector<std::pair<PhysAddr, uint64_t>> out;
    out.reserve(footprint_);
    auto emitPage = [&out](uint64_t page_num, const Page &page) {
        if (page.populated == 0)
            return;
        const PhysAddr base = page_num << pageBytesLog2;
        for (uint64_t w = 0; w < wordsPerPage; ++w) {
            if (page.written[w >> 6] & (1ull << (w & 63)))
                out.emplace_back(base + w * 8, page.words[w]);
        }
    };
    for (uint64_t p = 0; p < dense_.size(); ++p) {
        if (dense_[p])
            emitPage(p, *dense_[p]);
    }
    // Sparse pages all lie above the dense table; visit them in
    // address order for a deterministic snapshot.
    std::vector<uint64_t> high;
    high.reserve(sparse_.size());
    for (const auto &[page_num, page] : sparse_)
        high.push_back(page_num);
    std::sort(high.begin(), high.end());
    for (const uint64_t p : high)
        emitPage(p, *sparse_.at(p));
    return out;
}

} // namespace logtm
