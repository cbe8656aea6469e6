// Per-link view of the factored channel basis (core::MultiLinkCache).
//
// Each entry is a MultiLinkCache warmed with one link — a group of one —
// so a link's reads here are the same arithmetic, layout and bits as its
// segment of any multi-link basis. The view adds per-link warming and
// validation on every read; it has no table layout, rebuild or row
// accumulation of its own. Benchmarks and tests that time or check one
// link's cache reads in isolation use it; System owns a single
// MultiLinkCache over all of its links instead.
#pragma once

#include <cstdint>
#include <vector>

#include "core/multilink_cache.hpp"
#include "press/config.hpp"
#include "sdr/medium.hpp"
#include "util/cvec.hpp"
#include "util/kernels.hpp"

namespace press::core {

class LinkCache {
public:
    static constexpr std::size_t kTileSubcarriers =
        MultiLinkCache::kTileSubcarriers;
    using BasisLayout = MultiLinkCache::BasisLayout;

    /// Layout of the warm entry for (`link_id`, `array_id`): row_stride
    /// is the entry's padded segment width. Requires a warm entry.
    BasisLayout basis_layout(std::size_t link_id, std::size_t array_id) const;

    /// CFR with array `array_id`'s states overridden by `config` (other
    /// arrays stay at their current states), written into caller-owned
    /// scratch resized to the subcarrier count. Requires a warm, current
    /// entry (see warm()); never rebuilds, and reads only immutable entry
    /// state — safe to call concurrently from a batch evaluator.
    void response_into(const sdr::Medium& medium, std::size_t link_id,
                       const sdr::Link& link, std::size_t array_id,
                       const surface::Config& config,
                       util::kernels::SplitVec& out) const;

    /// Coordinate-sweep base: like response_into(), but element `element`
    /// of array `array_id` contributes NO row at all (its state in
    /// `config` is ignored).
    void response_base_into(const sdr::Medium& medium, std::size_t link_id,
                            const sdr::Link& link, std::size_t array_id,
                            const surface::Config& config,
                            std::size_t element,
                            util::kernels::SplitVec& out) const;

    /// Adds element `element`'s basis row for load state `state` (array
    /// `array_id`) into `h`. Requires a warm entry.
    void accumulate_element_row(std::size_t link_id, std::size_t array_id,
                                std::size_t element, int state,
                                util::kernels::SplitVec& h) const;

    /// Fused coordinate delta: out = base + the row, in one pass —
    /// bit-identical to copying `base` into `out` and calling
    /// accumulate_element_row(). `out` must already be sized to `base`
    /// and must not alias it.
    void element_row_delta(std::size_t link_id, std::size_t array_id,
                           std::size_t element, int state,
                           const util::kernels::SplitVec& base,
                           util::kernels::SplitVec& out) const;

    // Tile-bounded reads (DESIGN.md §15): the same arithmetic restricted
    // to half-open subcarrier spans (ascending, non-overlapping, inside
    // [0, num_sc) — phy::RuMask::tile_spans(kTileSubcarriers) produces
    // exactly that). Only the doubles inside the spans are written;
    // everything outside is left untouched and must not be read.

    void response_ranges_into(const sdr::Medium& medium, std::size_t link_id,
                              const sdr::Link& link, std::size_t array_id,
                              const surface::Config& config,
                              const util::kernels::IndexRange* ranges,
                              std::size_t num_ranges,
                              util::kernels::SplitVec& out) const;

    void response_base_ranges_into(const sdr::Medium& medium,
                                   std::size_t link_id,
                                   const sdr::Link& link,
                                   std::size_t array_id,
                                   const surface::Config& config,
                                   std::size_t element,
                                   const util::kernels::IndexRange* ranges,
                                   std::size_t num_ranges,
                                   util::kernels::SplitVec& out) const;

    void element_row_delta_ranges(std::size_t link_id, std::size_t array_id,
                                  std::size_t element, int state,
                                  const util::kernels::IndexRange* ranges,
                                  std::size_t num_ranges,
                                  const util::kernels::SplitVec& base,
                                  util::kernels::SplitVec& out) const;

    /// Builds (or refreshes) the entry for `link_id` so that subsequent
    /// reads are pure.
    void warm(const sdr::Medium& medium, std::size_t link_id,
              const sdr::Link& link);

    /// Drops every entry (the next warm per link is a miss).
    void invalidate();

    /// Folds `n` cache hits observed by a batch of reads (reads count
    /// nothing themselves; see CacheCounters).
    void note_batch_hits(std::uint64_t n) { counters_.add_hits(n); }

    CacheStats stats() const { return counters_.stats(); }

private:
    /// The entry of `link_id`, checked current for `link`.
    const MultiLinkCache& current_entry(const sdr::Medium& medium,
                                        std::size_t link_id,
                                        const sdr::Link& link) const;
    /// The entry of `link_id`, checked warm.
    const MultiLinkCache& warm_entry(std::size_t link_id) const;

    /// Shared body of the four reads; `ranges == nullptr` reads the full
    /// band.
    void read(const sdr::Medium& medium, std::size_t link_id,
              const sdr::Link& link, std::size_t array_id,
              const surface::Config& config, std::size_t skip_element,
              const util::kernels::IndexRange* ranges,
              std::size_t num_ranges, util::kernels::SplitVec& out) const;

    std::vector<MultiLinkCache> entries_;
    CacheCounters counters_;
};

}  // namespace press::core
