#include "core/multilink_cache.hpp"

#include <algorithm>
#include <map>

#include "em/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace press::core {

namespace {

void antenna_facets(const em::Antenna& a, double* out) {
    out[0] = a.peak_gain_dbi();
    out[1] = a.is_omni() ? 1.0 : 0.0;
    out[2] = a.beamwidth_rad();
    out[3] = a.boresight().x;
    out[4] = a.boresight().y;
    out[5] = a.boresight().z;
}

std::array<double, 18> link_fingerprint(const sdr::Link& link) {
    std::array<double, 18> fp{};
    fp[0] = link.tx.position.x;
    fp[1] = link.tx.position.y;
    fp[2] = link.tx.position.z;
    fp[3] = link.rx.position.x;
    fp[4] = link.rx.position.y;
    fp[5] = link.rx.position.z;
    antenna_facets(link.tx.antenna, fp.data() + 6);
    antenna_facets(link.rx.antenna, fp.data() + 12);
    return fp;
}

// Transmitter identity: position + antenna facets. Links agreeing on all
// nine facets share a group (exact comparison — endpoints come from the
// same scenario-builder doubles, not re-derived values).
using TxKey = std::array<double, 9>;

TxKey tx_key(const sdr::Link& link) {
    TxKey key{};
    key[0] = link.tx.position.x;
    key[1] = link.tx.position.y;
    key[2] = link.tx.position.z;
    antenna_facets(link.tx.antenna, key.data() + 3);
    return key;
}

}  // namespace

// ------------------------------------------------------------ counters

CacheCounters::CacheCounters(CacheCounters&& other) noexcept
    : hits_(other.hits_.exchange(0, std::memory_order_relaxed)),
      misses_(other.misses_.exchange(0, std::memory_order_relaxed)),
      invalidations_(
          other.invalidations_.exchange(0, std::memory_order_relaxed)) {}

CacheCounters& CacheCounters::operator=(CacheCounters&& other) noexcept {
    hits_.store(other.hits_.exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
    misses_.store(other.misses_.exchange(0, std::memory_order_relaxed),
                  std::memory_order_relaxed);
    invalidations_.store(
        other.invalidations_.exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
}

void CacheCounters::add_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
    if (!obs::enabled()) return;
    static obs::Counter& mirror =
        obs::MetricsRegistry::global().counter("core.link_cache.hits");
    mirror.add(n);
}

void CacheCounters::add_miss() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (!obs::enabled()) return;
    static obs::Counter& mirror =
        obs::MetricsRegistry::global().counter("core.link_cache.misses");
    mirror.add();
}

void CacheCounters::add_invalidation() {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (!obs::enabled()) return;
    static obs::Counter& mirror = obs::MetricsRegistry::global().counter(
        "core.link_cache.invalidations");
    mirror.add();
}

CacheStats CacheCounters::stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    return s;
}

// ------------------------------------------------------ build / validity

bool MultiLinkCache::current(const sdr::Medium& medium,
                             std::span<const sdr::Link> links) const {
    if (!warmed()) return false;
    if (views_.size() != links.size()) return false;
    if (env_revision_ != medium.environment().revision()) return false;
    if (array_revisions_.size() != medium.num_arrays()) return false;
    for (std::size_t a = 0; a < array_revisions_.size(); ++a) {
        if (array_revisions_[a] != medium.array(a).structure_revision())
            return false;
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
        if (fingerprints_[i] != link_fingerprint(links[i])) return false;
    }
    return true;
}

bool MultiLinkCache::warm(const sdr::Medium& medium,
                          std::span<const sdr::Link> links) {
    PRESS_EXPECTS(!links.empty(), "warm() needs at least one link");
    if (current(medium, links)) return false;
    rebuild(medium, links);
    return true;
}

void MultiLinkCache::rebuild(const sdr::Medium& medium,
                             std::span<const sdr::Link> links) {
    obs::TraceSpan span("core.link_cache.rebuild");
    const std::vector<double>& freqs = medium.ofdm().used_frequencies_hz();
    num_sc_ = freqs.size();
    constexpr std::size_t kLanes = util::kernels::kLanes;
    // Pad each member segment to a whole number of kernel lanes so every
    // segment starts lane-aligned; padding doubles stay zero.
    link_stride_ = (num_sc_ + kLanes - 1) / kLanes * kLanes;
    const double carrier_hz = medium.ofdm().carrier_hz();

    // Group links by transmitter, groups ordered by first appearance and
    // members ascending (link ids ascend as we scan).
    // The placements land last, so a build that throws leaves the basis
    // cold rather than half-built.
    invalidate();
    std::vector<LinkView> views(links.size());
    fingerprints_.resize(links.size());
    std::map<TxKey, std::size_t> by_tx;
    for (std::size_t i = 0; i < links.size(); ++i) {
        fingerprints_[i] = link_fingerprint(links[i]);
        auto [it, inserted] = by_tx.try_emplace(tx_key(links[i]),
                                                groups_.size());
        if (inserted) groups_.emplace_back();
        Group& g = groups_[it->second];
        views[i] = LinkView{it->second, g.links.size(),
                            g.links.size() * link_stride_};
        g.links.push_back(i);
    }

    util::CVec scratch;
    for (Group& g : groups_) {
        g.width = g.links.size() * link_stride_;
        // Wide static CFR: member slot s holds that link's environment
        // response in its first num_sc doubles, zero padding after.
        g.h_static.assign_zero(g.width);
        for (std::size_t s = 0; s < g.links.size(); ++s) {
            const util::CVec h_static = em::frequency_response(
                medium.environment_paths(links[g.links[s]]), freqs);
            util::kernels::deinterleave(
                h_static.data(), g.h_static.re.data() + s * link_stride_,
                g.h_static.im.data() + s * link_stride_, num_sc_);
        }
        // Wide basis per array: each member's (element, state) rows side
        // by side. Row indexing — radices, row offsets — is shared: it
        // depends only on the array.
        g.arrays.clear();
        g.arrays.reserve(medium.num_arrays());
        for (std::size_t a = 0; a < medium.num_arrays(); ++a) {
            const surface::Array& array = medium.array(a);
            GroupBasis basis;
            basis.width = g.width;
            basis.radices.reserve(array.size());
            basis.row_offset.reserve(array.size());
            std::size_t rows = 0;
            for (std::size_t s = 0; s < g.links.size(); ++s) {
                const sdr::Link& link = links[g.links[s]];
                const std::vector<std::vector<em::Path>> per_state =
                    array.state_paths(medium.environment(), link.tx, link.rx,
                                      carrier_hz);
                if (s == 0) {
                    for (const auto& states : per_state) {
                        basis.radices.push_back(
                            static_cast<int>(states.size()));
                        basis.row_offset.push_back(rows);
                        rows += states.size();
                    }
                    basis.table.assign(rows * 2 * basis.width, 0.0);
                }
                std::size_t e = 0;
                for (const auto& states : per_state) {
                    PRESS_EXPECTS(
                        e < basis.row_offset.size() &&
                            static_cast<int>(states.size()) ==
                                basis.radices[e],
                        "element state arity differs across group members");
                    std::size_t r = basis.row_offset[e];
                    for (const em::Path& p : states) {
                        scratch.assign(num_sc_, util::cd{0.0, 0.0});
                        em::accumulate_frequency_response(scratch, {p},
                                                          freqs);
                        util::kernels::deinterleave(
                            scratch.data(),
                            basis.row_re(r) + s * link_stride_,
                            basis.row_im(r) + s * link_stride_, num_sc_);
                        ++r;
                    }
                    ++e;
                }
            }
            g.arrays.push_back(std::move(basis));
        }
    }

    env_revision_ = medium.environment().revision();
    array_revisions_.resize(medium.num_arrays());
    for (std::size_t a = 0; a < medium.num_arrays(); ++a)
        array_revisions_[a] = medium.array(a).structure_revision();
    views_ = std::move(views);
}

void MultiLinkCache::invalidate() {
    groups_.clear();
    views_.clear();
    fingerprints_.clear();
}

// ---------------------------------------------------------------- reads

MultiLinkCache::Segments MultiLinkCache::link_segment(
    std::size_t link_id) const {
    const LinkView v = view(link_id);
    return Segments{v.group, v.slot, 1, num_sc_};
}

MultiLinkCache::Segments MultiLinkCache::group_segments(
    std::size_t group) const {
    return Segments{group, 0, group_links(group).size(), group_width(group)};
}

const MultiLinkCache::Group& MultiLinkCache::checked_group(
    const Segments& seg) const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() before reads");
    PRESS_EXPECTS(seg.group < groups_.size(), "group id out of range");
    const Group& g = groups_[seg.group];
    PRESS_EXPECTS(seg.count > 0 && seg.first + seg.count <= g.links.size(),
                  "segments out of the group's range");
    PRESS_EXPECTS(seg.width >= (seg.count - 1) * link_stride_ + num_sc_ &&
                      seg.width <= seg.count * link_stride_,
                  "read width does not fit the segments");
    return g;
}

std::size_t MultiLinkCache::checked_row(const Group& group,
                                        std::size_t array_id,
                                        std::size_t element,
                                        int state) const {
    PRESS_EXPECTS(array_id < group.arrays.size(),
                  "array id out of the cached range");
    const GroupBasis& basis = group.arrays[array_id];
    PRESS_EXPECTS(element < basis.radices.size(),
                  "element id out of the cached range");
    PRESS_EXPECTS(state >= 0 && state < basis.radices[element],
                  "configuration state out of the cached range");
    return basis.row_offset[element] + static_cast<std::size_t>(state);
}

template <typename F>
void MultiLinkCache::for_each_span(const Segments& seg,
                                   const util::kernels::IndexRange* ranges,
                                   std::size_t num_ranges, F&& f) const {
    if (num_ranges == 1 && ranges[0].offset == 0 &&
        ranges[0].len == num_sc_) {
        f(std::size_t{0}, seg.width);
        return;
    }
    for (std::size_t s = 0; s < seg.count; ++s) {
        for (std::size_t ri = 0; ri < num_ranges; ++ri) {
            PRESS_EXPECTS(ranges[ri].offset + ranges[ri].len <= num_sc_,
                          "span exceeds the cached subcarrier count");
            f(s * link_stride_ + ranges[ri].offset, ranges[ri].len);
        }
    }
}

void MultiLinkCache::add_rows(const Segments& seg, const GroupBasis& basis,
                              const surface::Config& config,
                              std::size_t skip_element,
                              const util::kernels::IndexRange* ranges,
                              std::size_t num_ranges,
                              util::kernels::SplitVec& out) const {
    PRESS_EXPECTS(config.size() == basis.radices.size(),
                  "configuration arity must match the cached array");
    PRESS_EXPECTS(skip_element == kNoSkip ||
                      skip_element < basis.radices.size(),
                  "element id out of the cached range");
    for (std::size_t e = 0; e < config.size(); ++e) {
        if (e == skip_element) continue;
        PRESS_EXPECTS(config[e] >= 0 && config[e] < basis.radices[e],
                      "configuration state out of the cached range");
    }
    const util::kernels::Dispatch d = util::kernels::active();
    const std::size_t table_offset = seg.first * link_stride_;
    // Tile each span with the element walk innermost: the scratch tile
    // stays L1-resident while the selected rows stream past, and each
    // double still receives its element terms in ascending order.
    for_each_span(seg, ranges, num_ranges,
                  [&](std::size_t begin, std::size_t len) {
        const std::size_t end = begin + len;
        for (std::size_t sc = begin; sc < end; sc += kTileSubcarriers) {
            const std::size_t n = std::min(kTileSubcarriers, end - sc);
            double* tile_re = out.re.data() + sc;
            double* tile_im = out.im.data() + sc;
            for (std::size_t e = 0; e < config.size(); ++e) {
                if (e == skip_element) continue;
                const std::size_t row =
                    basis.row_offset[e] + static_cast<std::size_t>(config[e]);
                util::kernels::accumulate(
                    d, basis.row_re(row) + table_offset + sc,
                    basis.row_im(row) + table_offset + sc, tile_re, tile_im,
                    n);
            }
        }
    });
}

void MultiLinkCache::response_into(const sdr::Medium& medium,
                                   const Segments& seg, std::size_t array_id,
                                   const surface::Config& config,
                                   std::size_t skip_element,
                                   const util::kernels::IndexRange* ranges,
                                   std::size_t num_ranges,
                                   util::kernels::SplitVec& out) const {
    const Group& g = checked_group(seg);
    out.resize(seg.width);
    const util::kernels::Dispatch d = util::kernels::active();
    const std::size_t table_offset = seg.first * link_stride_;
    const double* static_re = g.h_static.re.data() + table_offset;
    const double* static_im = g.h_static.im.data() + table_offset;
    for_each_span(seg, ranges, num_ranges,
                  [&](std::size_t o, std::size_t len) {
        util::kernels::copy(d, static_re + o, static_im + o,
                            out.re.data() + o, out.im.data() + o, len);
    });
    for (std::size_t a = 0; a < g.arrays.size(); ++a) {
        // Branch instead of a ternary: a `ref : prvalue` conditional's
        // common type is a prvalue, which would copy (allocate) `config`
        // on every read of the candidate's own array.
        if (a == array_id) {
            add_rows(seg, g.arrays[a], config, skip_element, ranges,
                     num_ranges, out);
        } else {
            add_rows(seg, g.arrays[a], medium.array(a).current_config(),
                     kNoSkip, ranges, num_ranges, out);
        }
    }
}

void MultiLinkCache::row_delta(const Segments& seg, std::size_t array_id,
                               std::size_t element, int state,
                               const util::kernels::IndexRange* ranges,
                               std::size_t num_ranges,
                               const util::kernels::SplitVec& base,
                               util::kernels::SplitVec& out) const {
    const Group& g = checked_group(seg);
    const std::size_t row = checked_row(g, array_id, element, state);
    PRESS_EXPECTS(base.size() == seg.width,
                  "base does not match the read width");
    PRESS_EXPECTS(out.size() == seg.width,
                  "out must be pre-sized to the read width");
    const GroupBasis& basis = g.arrays[array_id];
    const std::size_t table_offset = seg.first * link_stride_;
    const double* row_re = basis.row_re(row) + table_offset;
    const double* row_im = basis.row_im(row) + table_offset;
    const util::kernels::Dispatch d = util::kernels::active();
    for_each_span(seg, ranges, num_ranges,
                  [&](std::size_t o, std::size_t len) {
        util::kernels::copy_accumulate(d, base.re.data() + o,
                                       base.im.data() + o, row_re + o,
                                       row_im + o, out.re.data() + o,
                                       out.im.data() + o, len);
    });
}

void MultiLinkCache::add_row(const Segments& seg, std::size_t array_id,
                             std::size_t element, int state,
                             util::kernels::SplitVec& h) const {
    const Group& g = checked_group(seg);
    const std::size_t row = checked_row(g, array_id, element, state);
    PRESS_EXPECTS(h.size() == seg.width,
                  "scratch does not match the read width");
    const GroupBasis& basis = g.arrays[array_id];
    const std::size_t table_offset = seg.first * link_stride_;
    util::kernels::accumulate(util::kernels::active(),
                              basis.row_re(row) + table_offset,
                              basis.row_im(row) + table_offset, h.re.data(),
                              h.im.data(), seg.width);
}

void MultiLinkCache::group_response_into(const sdr::Medium& medium,
                                         std::size_t group,
                                         std::size_t array_id,
                                         const surface::Config& config,
                                         util::kernels::SplitVec& out) const {
    const util::kernels::IndexRange full{0, num_sc_};
    group_response_ranges_into(medium, group, array_id, config, &full, 1,
                               out);
}

void MultiLinkCache::group_response_ranges_into(
    const sdr::Medium& medium, std::size_t group, std::size_t array_id,
    const surface::Config& config, const util::kernels::IndexRange* ranges,
    std::size_t num_ranges, util::kernels::SplitVec& out) const {
    PRESS_EXPECTS(array_id < medium.num_arrays(),
                  "array id out of the cached range");
    response_into(medium, group_segments(group), array_id, config, kNoSkip,
                  ranges, num_ranges, out);
}

void MultiLinkCache::group_response_base_into(
    const sdr::Medium& medium, std::size_t group, std::size_t array_id,
    const surface::Config& config, std::size_t element,
    util::kernels::SplitVec& out) const {
    PRESS_EXPECTS(array_id < medium.num_arrays(),
                  "array id out of the cached range");
    const util::kernels::IndexRange full{0, num_sc_};
    response_into(medium, group_segments(group), array_id, config, element,
                  &full, 1, out);
}

void MultiLinkCache::accumulate_group_element_row(
    std::size_t group, std::size_t array_id, std::size_t element, int state,
    util::kernels::SplitVec& h) const {
    add_row(group_segments(group), array_id, element, state, h);
}

// ------------------------------------------------------------ accessors

MultiLinkCache::LinkView MultiLinkCache::view(std::size_t link_id) const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() first");
    PRESS_EXPECTS(link_id < views_.size(), "link id out of range");
    return views_[link_id];
}

const std::vector<std::size_t>& MultiLinkCache::group_links(
    std::size_t group) const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() first");
    PRESS_EXPECTS(group < groups_.size(), "group id out of range");
    return groups_[group].links;
}

std::size_t MultiLinkCache::group_width(std::size_t group) const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() first");
    PRESS_EXPECTS(group < groups_.size(), "group id out of range");
    return groups_[group].width;
}

MultiLinkCache::BasisLayout MultiLinkCache::basis_layout(
    std::size_t group, std::size_t array_id) const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() first");
    PRESS_EXPECTS(group < groups_.size(), "group id out of range");
    PRESS_EXPECTS(array_id < groups_[group].arrays.size(),
                  "array id out of the cached range");
    const GroupBasis& basis = groups_[group].arrays[array_id];
    BasisLayout layout;
    layout.rows = basis.radices.empty()
                      ? 0
                      : basis.row_offset.back() +
                            static_cast<std::size_t>(basis.radices.back());
    layout.num_sc = num_sc_;
    layout.row_stride = basis.width;
    layout.bytes = basis.table.size() * sizeof(double);
    return layout;
}

MultiLinkCache::MemoryStats MultiLinkCache::memory_stats() const {
    PRESS_EXPECTS(warmed(), "cache is cold; call warm() first");
    MemoryStats m;
    for (const Group& g : groups_) {
        m.shared_static_bytes += 2 * g.h_static.size() * sizeof(double);
        m.shared_metadata_bytes += g.links.size() * sizeof(std::size_t);
        for (const GroupBasis& basis : g.arrays) {
            m.shared_table_bytes += basis.table.size() * sizeof(double);
            const std::size_t meta =
                basis.radices.size() * sizeof(int) +
                basis.row_offset.size() * sizeof(std::size_t);
            m.shared_metadata_bytes += meta;
            // Per-link tables hold the same rows split across N tables
            // (identical doubles) but duplicate the selection metadata
            // per member; their static CFRs are unpadded.
            m.naive_table_bytes += basis.table.size() * sizeof(double);
            m.naive_metadata_bytes += meta * g.links.size();
        }
        m.naive_static_bytes +=
            g.links.size() * 2 * num_sc_ * sizeof(double);
        m.naive_metadata_bytes +=
            g.links.size() * kFingerprintSize * sizeof(double);
    }
    m.shared_metadata_bytes +=
        views_.size() * sizeof(LinkView) +
        fingerprints_.size() * kFingerprintSize * sizeof(double);
    return m;
}

}  // namespace press::core
