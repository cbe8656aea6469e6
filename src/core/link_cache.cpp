#include "core/link_cache.hpp"

#include <span>

#include "util/contracts.hpp"

namespace press::core {

const MultiLinkCache& LinkCache::current_entry(const sdr::Medium& medium,
                                               std::size_t link_id,
                                               const sdr::Link& link) const {
    PRESS_EXPECTS(link_id < entries_.size(), "link has no cache entry");
    const MultiLinkCache& entry = entries_[link_id];
    PRESS_EXPECTS(entry.current(medium, std::span(&link, 1)),
                  "cache entry is stale; call warm() before batch reads");
    return entry;
}

const MultiLinkCache& LinkCache::warm_entry(std::size_t link_id) const {
    PRESS_EXPECTS(link_id < entries_.size(), "link has no cache entry");
    PRESS_EXPECTS(entries_[link_id].warmed(),
                  "cache entry is cold; call warm() first");
    return entries_[link_id];
}

void LinkCache::warm(const sdr::Medium& medium, std::size_t link_id,
                     const sdr::Link& link) {
    if (entries_.size() <= link_id) entries_.resize(link_id + 1);
    if (entries_[link_id].warm(medium, std::span(&link, 1)))
        counters_.add_miss();
}

void LinkCache::invalidate() {
    for (MultiLinkCache& entry : entries_) entry.invalidate();
    counters_.add_invalidation();
}

void LinkCache::read(const sdr::Medium& medium, std::size_t link_id,
                     const sdr::Link& link, std::size_t array_id,
                     const surface::Config& config, std::size_t skip_element,
                     const util::kernels::IndexRange* ranges,
                     std::size_t num_ranges,
                     util::kernels::SplitVec& out) const {
    const MultiLinkCache& entry = current_entry(medium, link_id, link);
    PRESS_EXPECTS(array_id < medium.num_arrays(),
                  "array id out of the cached range");
    const util::kernels::IndexRange full{0, entry.num_sc()};
    if (ranges == nullptr) {
        ranges = &full;
        num_ranges = 1;
    }
    entry.response_into(medium, entry.link_segment(0), array_id,
                        config, skip_element, ranges, num_ranges, out);
}

void LinkCache::response_into(const sdr::Medium& medium,
                              std::size_t link_id, const sdr::Link& link,
                              std::size_t array_id,
                              const surface::Config& config,
                              util::kernels::SplitVec& out) const {
    read(medium, link_id, link, array_id, config, MultiLinkCache::kNoSkip,
         nullptr, 0, out);
}

void LinkCache::response_base_into(const sdr::Medium& medium,
                                   std::size_t link_id,
                                   const sdr::Link& link,
                                   std::size_t array_id,
                                   const surface::Config& config,
                                   std::size_t element,
                                   util::kernels::SplitVec& out) const {
    read(medium, link_id, link, array_id, config, element, nullptr, 0, out);
}

void LinkCache::response_ranges_into(const sdr::Medium& medium,
                                     std::size_t link_id,
                                     const sdr::Link& link,
                                     std::size_t array_id,
                                     const surface::Config& config,
                                     const util::kernels::IndexRange* ranges,
                                     std::size_t num_ranges,
                                     util::kernels::SplitVec& out) const {
    read(medium, link_id, link, array_id, config, MultiLinkCache::kNoSkip,
         ranges, num_ranges, out);
}

void LinkCache::response_base_ranges_into(
    const sdr::Medium& medium, std::size_t link_id, const sdr::Link& link,
    std::size_t array_id, const surface::Config& config, std::size_t element,
    const util::kernels::IndexRange* ranges, std::size_t num_ranges,
    util::kernels::SplitVec& out) const {
    read(medium, link_id, link, array_id, config, element, ranges,
         num_ranges, out);
}

void LinkCache::accumulate_element_row(std::size_t link_id,
                                       std::size_t array_id,
                                       std::size_t element, int state,
                                       util::kernels::SplitVec& h) const {
    const MultiLinkCache& entry = warm_entry(link_id);
    entry.add_row(entry.link_segment(0), array_id, element, state, h);
}

void LinkCache::element_row_delta(std::size_t link_id, std::size_t array_id,
                                  std::size_t element, int state,
                                  const util::kernels::SplitVec& base,
                                  util::kernels::SplitVec& out) const {
    const MultiLinkCache& entry = warm_entry(link_id);
    const util::kernels::IndexRange full{0, entry.num_sc()};
    entry.row_delta(entry.link_segment(0), array_id, element, state,
                    &full, 1, base, out);
}

void LinkCache::element_row_delta_ranges(
    std::size_t link_id, std::size_t array_id, std::size_t element,
    int state, const util::kernels::IndexRange* ranges,
    std::size_t num_ranges, const util::kernels::SplitVec& base,
    util::kernels::SplitVec& out) const {
    const MultiLinkCache& entry = warm_entry(link_id);
    entry.row_delta(entry.link_segment(0), array_id, element, state,
                    ranges, num_ranges, base, out);
}

LinkCache::BasisLayout LinkCache::basis_layout(std::size_t link_id,
                                               std::size_t array_id) const {
    return warm_entry(link_id).basis_layout(0, array_id);
}

}  // namespace press::core
