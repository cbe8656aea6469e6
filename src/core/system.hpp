// press::core::System — the public facade of the library.
//
// A System owns a Medium (environment + PRESS arrays + numerology) and a
// set of observed links, and exposes the full loop a deployment runs:
// measure links, sweep or search configurations through a Controller with
// a control-plane timing model, and leave the array in the best state.
//
// Fault tolerance: inject_faults() attaches a fault::FaultModel to an
// array, after which every apply (including the controller's trials) is
// distorted by the faulty hardware while the caller still believes its
// requested configuration landed. probe_health() runs the per-element
// detection sweep, and optimize_degraded() searches only the dimensions a
// HealthReport left unfrozen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "control/controller.hpp"
#include "control/objective.hpp"
#include "control/search.hpp"
#include "core/multilink_cache.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "sdr/medium.hpp"
#include "util/cvec.hpp"
#include "util/rng.hpp"

namespace press::core {

/// Facade tying the substrates together. See examples/quickstart.cpp.
class System {
public:
    explicit System(sdr::Medium medium);

    sdr::Medium& medium() { return medium_; }
    const sdr::Medium& medium() const { return medium_; }

    /// Registers a link the controller will observe; returns its id.
    std::size_t add_link(sdr::Link link);

    std::size_t num_links() const { return links_.size(); }
    const sdr::Link& link(std::size_t id) const;
    sdr::Link& link(std::size_t id);

    /// Number of LTF repetitions per sounding (default 4, as in a Wi-Fi
    /// preamble-rich measurement frame).
    void set_sounding_repeats(std::size_t repeats);
    std::size_t sounding_repeats() const { return sounding_repeats_; }

    /// Noise-free CFR of one link under the current configuration: the
    /// link's segment of the factored channel cache (H = H_static +
    /// B . g(config)), bit-identical to synthesizing
    /// medium().resolve_paths() directly.
    util::CVec channel_response(std::size_t link_id) const;

    /// Sounds one link under the current configuration.
    phy::ChannelEstimate sound(std::size_t link_id, util::Rng& rng) const;

    /// Measured per-subcarrier SNR (dB) of one link.
    std::vector<double> measured_snr_db(std::size_t link_id,
                                        util::Rng& rng) const;

    /// Noise-free per-subcarrier SNR (dB) of one link (ground truth).
    std::vector<double> true_snr_db(std::size_t link_id) const;

    /// Observation across every registered link (what a controller sees).
    control::Observation observe(util::Rng& rng) const;

    /// Noise-free observation across every link (ground truth; what a
    /// degradation bench scores final states with).
    control::Observation observe_true() const;

    /// Attaches element faults to array `array_id`: permanent damage is
    /// installed immediately, and every subsequent apply is distorted.
    void inject_faults(std::size_t array_id, fault::FaultModel model);

    /// The fault model attached to `array_id`, or nullptr.
    const fault::FaultModel* faults(std::size_t array_id) const;

    /// Applies a configuration to array `array_id` (through the array's
    /// fault model when one is attached).
    void apply(std::size_t array_id, const surface::Config& config);

    /// Runs the per-element health probe sweep on array `array_id` from
    /// its current configuration. Probe time is priced with `plane` but
    /// charged to a maintenance window, not a coherence budget.
    fault::HealthReport probe_health(std::size_t array_id,
                                     const control::ControlPlaneModel& plane,
                                     util::Rng& rng,
                                     const fault::ProbeOptions& options = {});

    /// Runs a budgeted optimization of array `array_id` toward `objective`
    /// using `searcher` under `plane` timing; leaves the best configuration
    /// applied.
    control::OptimizationOutcome optimize(
        std::size_t array_id, const control::Objective& objective,
        const control::Searcher& searcher,
        const control::ControlPlaneModel& plane, double time_budget_s,
        util::Rng& rng);

    /// Degradation-aware optimization: elements `report` flagged as
    /// suspect are frozen at the array's current states and the search
    /// runs over the healthy dimensions only. The returned best_config is
    /// lifted back to full arity. Falls back to plain optimize() when the
    /// report flags nothing (or everything).
    control::OptimizationOutcome optimize_degraded(
        std::size_t array_id, const control::Objective& objective,
        const control::Searcher& searcher,
        const control::ControlPlaneModel& plane, double time_budget_s,
        const fault::HealthReport& report, util::Rng& rng);

    /// Cache-backed parallel optimization: candidates are scored against
    /// the factored channel cache on a fixed thread pool instead of being
    /// applied to the (simulated) hardware one at a time, so evaluation
    /// throughput is bounded by the GEMV recombination kernel rather than
    /// the ray tracer. Simulated wall-clock is still charged per trial at
    /// the control-plane rate (parallelism speeds up the simulator, not
    /// the modeled hardware). Stuck/dead/drift faults are fully respected;
    /// flaky switches are evaluated against the pre-search array state.
    ///
    /// The objective picks the scoring mode, tried in this order:
    ///   - a composite control::MultiLinkSpec (weighted sums, max-min
    ///     fairness, QoS floors, nulling): each candidate assembles the
    ///     whole transmitter groups of its term links — one row selection
    ///     per group serves every member — then sounds and reduces each
    ///     term in term order and combines, no Observation materialized;
    ///   - a single-link control::FusedSpec (min or mean SNR, optionally
    ///     under an RU mask): one link's segment, sounded and reduced over
    ///     the mask's active tones (all tones without one);
    ///   - otherwise the general path: every link in ascending id order,
    ///     materialized into an Observation for objective.score().
    /// Each candidate draws its fault distortion first, then its links'
    /// sounding noise in that order, from a private rng stream, so results
    /// are bit-reproducible for a given rng state regardless of `threads`
    /// (0 = PRESS_THREADS env override, else hardware default). The best
    /// configuration found is applied before returning.
    control::OptimizationOutcome optimize_fast(
        std::size_t array_id, const control::Objective& objective,
        const control::Searcher& searcher,
        const control::ControlPlaneModel& plane, double time_budget_s,
        util::Rng& rng, std::size_t threads = 0);

    /// The same as optimize_fast (the name multi-link callers use).
    control::OptimizationOutcome optimize_multilink(
        std::size_t array_id, const control::Objective& objective,
        const control::Searcher& searcher,
        const control::ControlPlaneModel& plane, double time_budget_s,
        util::Rng& rng, std::size_t threads = 0) {
        return optimize_fast(array_id, objective, searcher, plane,
                             time_budget_s, rng, threads);
    }

    /// Warms the channel cache for every registered link (a no-op when
    /// current). Every read warms it on demand; exposed so benches can
    /// split build cost from steady-state sweeps.
    void warm_multilink() const;

    /// The channel cache (warm after warm_multilink()).
    const MultiLinkCache& multilink_cache() const { return cache_; }

    /// Snapshot of the channel cache counters (hits, misses = basis
    /// builds, invalidations). Also exported through the telemetry
    /// registry as core.link_cache.* when observability is enabled.
    CacheStats cache_stats() const { return cache_counters_.stats(); }

    /// The same counters under their multi-link names.
    struct MultiLinkStats {
        std::uint64_t hits = 0;
        std::uint64_t rebuilds = 0;  ///< == cache_stats().misses
        std::uint64_t invalidations = 0;
    };
    MultiLinkStats multilink_cache_stats() const {
        const CacheStats s = cache_stats();
        return {s.hits, s.misses, s.invalidations};
    }

    /// Drops the channel cache (the next read or optimize rebuilds it).
    void invalidate_cache() {
        cache_.invalidate();
        cache_counters_.add_invalidation();
    }

private:
    sdr::Medium medium_;
    std::vector<sdr::Link> links_;
    std::size_t sounding_repeats_ = 4;
    std::map<std::size_t, fault::FaultModel> fault_models_;
    /// The factored channel basis of every registered link, grouped by
    /// transmitter; rebuilt lazily on geometry, endpoint or fault changes.
    /// Mutable: observation is logically const.
    mutable MultiLinkCache cache_;
    mutable CacheCounters cache_counters_;
};

}  // namespace press::core
