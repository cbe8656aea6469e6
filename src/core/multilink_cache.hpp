// The factored channel basis: every link's channel, stacked per
// transmitter, scored without re-tracing the scene.
//
// For a fixed scene geometry, link endpoints and element load banks, the
// channel of a link decomposes into a configuration-independent part and a
// per-element basis:
//
//     H[k] = H_static[k] + sum_e B[e][ state_e ][k]
//
// where H_static is the CFR of the environment paths (direct + wall images
// + scatterers + static diffuse multipath) and B[e][s] is the CFR of
// element e's two-hop re-radiation under load state s — both independent
// of which configuration is applied. Scoring a candidate configuration
// then costs a row-gather plus a complex accumulation over
// elements x subcarriers (a sparse complex GEMV) instead of an image-
// method re-trace of the scene, which is what lets a controller sweep
// thousands of candidates inside one coherence window.
//
// Links are grouped by transmitter (position + antenna facets), and each
// (group, array) pair stores ONE stacked wide basis:
//
//     wide row r = [ link a's row r | link b's row r | ... ]
//
// Each member's segment holds num_sc split-complex doubles padded to
// link_stride = num_sc rounded up to util::kernels::kLanes. A wide row's
// re segments for all members are contiguous, followed by all im
// segments: one contiguous block of 2*width doubles per row, so a row
// gather touches ONE forward-striding memory stream. Row selection
// depends only on the candidate configuration and the array's element
// arity, never on the receiver, so one selection walk serves every member
// of a group: per-candidate selection cost grows with distinct
// transmitters, not links. A single link is a group of one (core::
// LinkCache is the per-link view built that way).
//
// Reads name a run of member segments (Segments): one link's segment
// (num_sc doubles) or a whole group (group_width doubles). The
// accumulation is tiled over kTileSubcarriers-double blocks with the
// element walk innermost, so the scratch tile stays L1-resident while
// thousands of rows stream past; a run of whole segments read over the
// full band is walked as one span. Reads may be bounded to subcarrier
// spans (DESIGN.md §15): then only the doubles inside the spans of each
// member segment are written, and everything else must not be read.
//
// Bit-identity: the reconstruction adds the exact same per-path terms in
// the exact same order as the direct synthesis (environment paths first,
// then each array's elements in ascending order), so a link's response is
// bit-identical to em::frequency_response(medium.resolve_paths(link)).
// Neither the tiling, the span bounding, nor the segment's position in
// the wide row changes any double's bits: the element-wise kernels have
// no cross-position reduction.
//
// Coordinate sweeps get an incremental form: a read with `skip_element`
// leaves that element's row out entirely, and row_delta() adds one of its
// rows on top in one fused pass (kernels::copy_accumulate). The swept row
// is always the last addition, so the sweep's candidate equals the
// recompute-per-candidate arithmetic bit for bit.
//
// Invalidation: warm() validates against
//   - the environment's revision stamp (walls, obstacles, scatterers,
//     reflection order, static paths),
//   - each array's structure revision (elements added, loads swapped by
//     fault injection or trim, element antennas re-pointed),
//   - a fingerprint of every link's endpoints (positions and antennas).
// Applying configurations changes none of these, so config sweeps stay
// warm; fault installation and geometry edits rebuild. Endpoint
// velocities are ignored: responses are evaluated at elapsed time zero,
// where Doppler contributes no rotation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "press/config.hpp"
#include "sdr/medium.hpp"
#include "util/kernels.hpp"

namespace press::core {

/// Point-in-time snapshot of a cache owner's counters.
struct CacheStats {
    std::uint64_t hits = 0;           ///< responses served from a warm basis
    std::uint64_t misses = 0;         ///< basis (re)builds
    std::uint64_t invalidations = 0;  ///< explicit invalidate() calls
};

/// Hit / miss / invalidation counters of a cache owner, kept in relaxed
/// atomics so a telemetry export can read them while batch workers run,
/// and mirrored into the core.link_cache.{hits,misses,invalidations}
/// registry counters. Hits are folded per batch, never per read: the
/// cached evaluation path is sub-microsecond, so even a relaxed per-call
/// increment would be measurable.
class CacheCounters {
public:
    CacheCounters() = default;
    // The atomics delete the implicit moves, but owners (System, and the
    // scenarios that return one by value) move before any worker thread
    // exists. A move zeroes the source, so a moved-from owner that is
    // reused starts a fresh count instead of double-reporting.
    CacheCounters(CacheCounters&& other) noexcept;
    CacheCounters& operator=(CacheCounters&& other) noexcept;

    void add_hits(std::uint64_t n);
    void add_miss();
    void add_invalidation();
    CacheStats stats() const;

private:
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> invalidations_{0};
};

class MultiLinkCache {
public:
    /// Subcarrier-tile width (doubles) of the blocked accumulation: a tile
    /// of the scratch (2 x 256 doubles = 4 KiB) plus one row segment fits
    /// comfortably in L1 while thousands of rows stream through.
    static constexpr std::size_t kTileSubcarriers = 256;

    /// `skip_element` value that leaves every row in.
    static constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

    /// Where one link lives inside its group's wide rows: segment `slot`
    /// (ascending link-id order within the group), starting `offset`
    /// doubles into each component span.
    struct LinkView {
        std::size_t group = 0;
        std::size_t slot = 0;
        std::size_t offset = 0;  ///< slot * link_stride()
    };

    /// One read: member segments [first, first + count) of `group`,
    /// written `width` doubles wide — one link's segment (width num_sc)
    /// or a whole group (width group_width, padding included).
    struct Segments {
        std::size_t group = 0;
        std::size_t first = 0;
        std::size_t count = 0;
        std::size_t width = 0;
    };

    /// Geometry of one (group, array) table, for benchmarks and tests
    /// that report (or assert on) the blocked layout.
    struct BasisLayout {
        std::size_t rows = 0;        ///< total element-state rows
        std::size_t num_sc = 0;      ///< used subcarriers per segment
        std::size_t row_stride = 0;  ///< doubles per component of one row
        std::size_t bytes = 0;       ///< table footprint (rows*2*stride*8)
    };

    /// Shared-vs-naive footprint, for the bench's honest comparison. The
    /// `naive_*` side is what one table per link would hold for the same
    /// scene (computed from the same layout, not measured).
    struct MemoryStats {
        std::size_t shared_table_bytes = 0;   ///< wide basis tables
        std::size_t shared_static_bytes = 0;  ///< wide static CFRs
        std::size_t shared_metadata_bytes = 0;
        std::size_t naive_table_bytes = 0;
        std::size_t naive_static_bytes = 0;
        std::size_t naive_metadata_bytes = 0;
    };

    /// Builds (or refreshes) the grouped basis for `links` so every read
    /// is pure. Link ids are positions in `links`. Returns true when it
    /// (re)built, false when the basis was already current (a no-op).
    bool warm(const sdr::Medium& medium, std::span<const sdr::Link> links);

    /// True when the basis is warm and current for exactly `links`.
    bool current(const sdr::Medium& medium,
                 std::span<const sdr::Link> links) const;

    /// True when warm() has run and nothing invalidated it since.
    bool warmed() const { return !views_.empty(); }

    /// Drops the basis (the next warm() rebuilds).
    void invalidate();

    /// Link `link_id`'s own segment (num_sc doubles wide).
    Segments link_segment(std::size_t link_id) const;
    /// Every member segment of `group` (group_width doubles wide).
    Segments group_segments(std::size_t group) const;

    /// The one read. Writes the response of `seg` with array `array_id`'s
    /// states taken from `config` (every other array at its current
    /// configuration; an `array_id` past the last array overrides none)
    /// and element `skip_element` of that array contributing no row.
    /// Resizes `out` to seg.width and writes, inside every member
    /// segment, only the doubles of the half-open subcarrier spans
    /// `ranges` (ascending, non-overlapping, inside [0, num_sc) —
    /// phy::RuMask::tile_spans produces exactly that); one span covering
    /// [0, num_sc) reads the whole width. Reads only immutable state:
    /// safe from concurrent batch workers on a warm basis.
    void response_into(const sdr::Medium& medium, const Segments& seg,
                       std::size_t array_id, const surface::Config& config,
                       std::size_t skip_element,
                       const util::kernels::IndexRange* ranges,
                       std::size_t num_ranges,
                       util::kernels::SplitVec& out) const;

    /// Fused coordinate delta: out = base + element `element`'s row for
    /// load state `state` over the same spans, in one pass (base
    /// untouched; outside the spans `out` is left as is). `base` and
    /// `out` must both be seg.width wide and must not alias — resize
    /// `out` once outside the sweep; the call never allocates.
    void row_delta(const Segments& seg, std::size_t array_id,
                   std::size_t element, int state,
                   const util::kernels::IndexRange* ranges,
                   std::size_t num_ranges,
                   const util::kernels::SplitVec& base,
                   util::kernels::SplitVec& out) const;

    /// In-place form of row_delta over the whole width: h += the row.
    void add_row(const Segments& seg, std::size_t array_id,
                 std::size_t element, int state,
                 util::kernels::SplitVec& h) const;

    // Whole-group reads, in the form the benchmarks call them.
    void group_response_into(const sdr::Medium& medium, std::size_t group,
                             std::size_t array_id,
                             const surface::Config& config,
                             util::kernels::SplitVec& out) const;
    void group_response_ranges_into(const sdr::Medium& medium,
                                    std::size_t group, std::size_t array_id,
                                    const surface::Config& config,
                                    const util::kernels::IndexRange* ranges,
                                    std::size_t num_ranges,
                                    util::kernels::SplitVec& out) const;
    void group_response_base_into(const sdr::Medium& medium,
                                  std::size_t group, std::size_t array_id,
                                  const surface::Config& config,
                                  std::size_t element,
                                  util::kernels::SplitVec& out) const;
    void accumulate_group_element_row(std::size_t group,
                                      std::size_t array_id,
                                      std::size_t element, int state,
                                      util::kernels::SplitVec& h) const;

    /// The wide-row placement of link `link_id`. Requires a warm cache.
    LinkView view(std::size_t link_id) const;

    /// Member link ids of `group`, ascending. Requires a warm cache.
    const std::vector<std::size_t>& group_links(std::size_t group) const;

    std::size_t num_groups() const { return groups_.size(); }
    std::size_t num_links() const { return views_.size(); }
    std::size_t num_sc() const { return num_sc_; }
    /// Doubles per member segment (num_sc padded to kernels::kLanes).
    std::size_t link_stride() const { return link_stride_; }
    /// Doubles per component span of one wide row of `group`.
    std::size_t group_width(std::size_t group) const;

    BasisLayout basis_layout(std::size_t group, std::size_t array_id) const;
    MemoryStats memory_stats() const;

private:
    /// One (group, array) stacked basis. Wide row r's re span starts at
    /// table[r * 2 * width], its im span `width` doubles later; member
    /// slot s owns doubles [s * link_stride, s * link_stride + num_sc)
    /// of each span (the tail of the segment is zero padding).
    struct GroupBasis {
        std::vector<int> radices;             ///< states per element
        std::vector<std::size_t> row_offset;  ///< element -> first row
        std::size_t width = 0;                ///< doubles per component
        std::vector<double> table;            ///< rows x [re | im] blocks

        const double* row_re(std::size_t row) const {
            return table.data() + row * 2 * width;
        }
        const double* row_im(std::size_t row) const {
            return row_re(row) + width;
        }
        double* row_re(std::size_t row) {
            return table.data() + row * 2 * width;
        }
        double* row_im(std::size_t row) { return row_re(row) + width; }
    };

    struct Group {
        std::vector<std::size_t> links;  ///< member link ids, ascending
        std::size_t width = 0;           ///< links.size() * link_stride
        util::kernels::SplitVec h_static;  ///< wide static CFR
        std::vector<GroupBasis> arrays;
    };

    /// Link endpoint fingerprint: 2 x (position + antenna facets). Fixed
    /// arity, so current() compares without allocating.
    static constexpr std::size_t kFingerprintSize = 18;
    using Fingerprint = std::array<double, kFingerprintSize>;

    void rebuild(const sdr::Medium& medium, std::span<const sdr::Link> links);

    /// The group and element row `seg` / (`array_id`, `element`,
    /// `state`) name, validated.
    const Group& checked_group(const Segments& seg) const;
    std::size_t checked_row(const Group& group, std::size_t array_id,
                            std::size_t element, int state) const;

    /// Calls f(offset, len) for each span of `seg` in output coordinates:
    /// one span over the whole width when `ranges` is the full band,
    /// else each range inside each member segment.
    template <typename F>
    void for_each_span(const Segments& seg,
                       const util::kernels::IndexRange* ranges,
                       std::size_t num_ranges, F&& f) const;

    /// The one row accumulation: adds the rows `config` selects from
    /// `basis` (skipping `skip_element`) into `out` over `seg`'s spans.
    void add_rows(const Segments& seg, const GroupBasis& basis,
                  const surface::Config& config, std::size_t skip_element,
                  const util::kernels::IndexRange* ranges,
                  std::size_t num_ranges,
                  util::kernels::SplitVec& out) const;

    std::vector<Group> groups_;
    std::vector<LinkView> views_;            ///< link id -> placement
    std::vector<Fingerprint> fingerprints_;  ///< link id -> endpoints
    std::vector<std::uint64_t> array_revisions_;
    std::uint64_t env_revision_ = 0;
    std::size_t num_sc_ = 0;
    std::size_t link_stride_ = 0;
};

}  // namespace press::core
