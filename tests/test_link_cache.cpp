// Equivalence and invalidation tests for the factored channel cache: a
// cached response must match the direct path-trace synthesis to within
// 1e-12 relative error (it is in fact built to be bit-identical) across
// random rooms, obstacle sets, every element load combination, endpoint
// moves, injected faults and multi-link scenes.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <vector>

#include "core/link_cache.hpp"
#include "core/scenarios.hpp"
#include "core/system.hpp"
#include "em/channel.hpp"
#include "fault/fault.hpp"
#include "util/contracts.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace press::core {
namespace {

/// Max elementwise |a - b| over max |b| (0-safe).
double relative_error(const util::CVec& a, const util::CVec& b) {
    EXPECT_EQ(a.size(), b.size());
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
        num = std::max(num, std::abs(a[k] - b[k]));
        den = std::max(den, std::abs(b[k]));
    }
    return den == 0.0 ? num : num / den;
}

/// The reference: re-trace every path and synthesize the CFR directly.
util::CVec direct_response(const System& system, std::size_t link_id) {
    const sdr::Medium& medium = system.medium();
    return em::frequency_response(
        medium.resolve_paths(system.link(link_id)),
        medium.ofdm().used_frequencies_hz());
}

TEST(LinkCache, MatchesDirectSynthesisAcrossRooms) {
    for (const std::uint64_t seed : {1ull, 5ull, 9ull, 23ull}) {
        for (const bool los : {false, true}) {
            LinkScenario scenario = make_link_scenario(seed, los);
            const util::CVec cached =
                scenario.system.channel_response(scenario.link_id);
            const util::CVec direct =
                direct_response(scenario.system, scenario.link_id);
            EXPECT_LE(relative_error(cached, direct), 1e-12)
                << "seed=" << seed << " los=" << los;
        }
    }
}

TEST(LinkCache, MatchesDirectSynthesisForEveryConfiguration) {
    LinkScenario scenario = make_link_scenario(3, false);
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        scenario.system.apply(scenario.array_id, space.at(i));
        const util::CVec cached =
            scenario.system.channel_response(scenario.link_id);
        const util::CVec direct =
            direct_response(scenario.system, scenario.link_id);
        EXPECT_LE(relative_error(cached, direct), 1e-12) << "config " << i;
    }
    // One basis build serves the whole sweep: applying configurations
    // must not invalidate.
    EXPECT_EQ(scenario.system.cache_stats().misses, 1u);
    EXPECT_EQ(scenario.system.cache_stats().hits, space.size() - 1);
}

TEST(LinkCache, MatchesDirectSynthesisUnderInjectedFaults) {
    LinkScenario scenario = make_link_scenario(11, false);
    // Warm the cache, then damage the hardware: dead and drifted elements
    // rewrite loads, which must force a rebuild.
    (void)scenario.system.channel_response(scenario.link_id);
    util::Rng frng(77);
    scenario.system.inject_faults(
        scenario.array_id,
        fault::FaultModel::sample(scenario.system.medium()
                                      .array(scenario.array_id)
                                      .config_space(),
                                  0.67, frng));
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    util::Rng pick(5);
    for (int trial = 0; trial < 16; ++trial) {
        surface::Config c(space.num_elements());
        for (std::size_t e = 0; e < c.size(); ++e)
            c[e] = static_cast<int>(
                pick.uniform_int(0, space.radices()[e] - 1));
        scenario.system.apply(scenario.array_id, c);
        const util::CVec cached =
            scenario.system.channel_response(scenario.link_id);
        const util::CVec direct =
            direct_response(scenario.system, scenario.link_id);
        EXPECT_LE(relative_error(cached, direct), 1e-12)
            << "trial " << trial;
    }
}

TEST(LinkCache, InvalidatesOnEnvironmentMutation) {
    LinkScenario scenario = make_link_scenario(7, false);
    (void)scenario.system.channel_response(scenario.link_id);
    const auto misses_before = scenario.system.cache_stats().misses;
    // Drop a new metal cabinet into the room: the path set changes.
    em::Obstacle cabinet;
    cabinet.box = {{3.6, 2.6, 0.0}, {4.4, 3.4, 2.0}};
    cabinet.attenuation_db = 30.0;
    scenario.system.medium().environment().add_obstacle(cabinet);
    const util::CVec cached =
        scenario.system.channel_response(scenario.link_id);
    EXPECT_EQ(scenario.system.cache_stats().misses, misses_before + 1);
    EXPECT_LE(relative_error(
                  cached, direct_response(scenario.system, scenario.link_id)),
              1e-12);
}

TEST(LinkCache, InvalidatesOnEndpointMove) {
    LinkScenario scenario = make_link_scenario(7, false);
    (void)scenario.system.channel_response(scenario.link_id);
    const auto misses_before = scenario.system.cache_stats().misses;
    scenario.system.link(scenario.link_id).rx.position.x += 0.35;
    const util::CVec cached =
        scenario.system.channel_response(scenario.link_id);
    EXPECT_EQ(scenario.system.cache_stats().misses, misses_before + 1);
    EXPECT_LE(relative_error(
                  cached, direct_response(scenario.system, scenario.link_id)),
              1e-12);
}

TEST(LinkCache, ResponseWithOverridesOneArray) {
    LinkScenario scenario = make_link_scenario(13, false);
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const sdr::Link& link = system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    // Score hypothetical candidates without actuating anything, then
    // check each against a real apply + direct synthesis.
    util::Rng pick(9);
    for (int trial = 0; trial < 8; ++trial) {
        surface::Config c(space.num_elements());
        for (std::size_t e = 0; e < c.size(); ++e)
            c[e] = static_cast<int>(
                pick.uniform_int(0, space.radices()[e] - 1));
        const util::CVec hypothetical = cache.response_with(
            medium, scenario.link_id, link, scenario.array_id, c);
        system.apply(scenario.array_id, c);
        EXPECT_LE(relative_error(
                      hypothetical,
                      direct_response(system, scenario.link_id)),
                  1e-12);
    }
    // A stale entry must refuse the lock-free read path.
    system.medium().environment().set_max_reflection_order(2);
    EXPECT_THROW(cache.response_with(medium, scenario.link_id, link,
                                     scenario.array_id, space.at(0)),
                 util::ContractViolation);
}

TEST(LinkCache, ExplicitInvalidateForcesRebuild) {
    LinkScenario scenario = make_link_scenario(2, true);
    (void)scenario.system.channel_response(scenario.link_id);
    (void)scenario.system.channel_response(scenario.link_id);
    EXPECT_EQ(scenario.system.cache_stats().misses, 1u);
    EXPECT_EQ(scenario.system.cache_stats().hits, 1u);
    scenario.system.invalidate_cache();
    (void)scenario.system.channel_response(scenario.link_id);
    EXPECT_EQ(scenario.system.cache_stats().misses, 2u);
}

TEST(LinkCache, MoveZeroesTheSourceCounters) {
    // Regression: the move operations used to read the source's atomics
    // without clearing them, so a moved-from cache that was reused
    // double-reported the transferred hits/misses in telemetry.
    LinkCache cache;
    cache.note_batch_hits(5);
    cache.invalidate();
    LinkCache moved(std::move(cache));
    EXPECT_EQ(moved.stats().hits, 5u);
    EXPECT_EQ(moved.stats().invalidations, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().invalidations, 0u);

    LinkCache assigned;
    assigned.note_batch_hits(2);  // overwritten by the assignment
    assigned = std::move(moved);
    EXPECT_EQ(assigned.stats().hits, 5u);
    EXPECT_EQ(assigned.stats().invalidations, 1u);
    EXPECT_EQ(moved.stats().hits, 0u);
    EXPECT_EQ(moved.stats().invalidations, 0u);
}

TEST(LinkCache, ResponseIntoMatchesResponseWithBitwise) {
    LinkScenario scenario = make_link_scenario(13, false);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    util::kernels::SplitVec scratch;
    util::Rng pick(21);
    for (int trial = 0; trial < 12; ++trial) {
        surface::Config c(space.num_elements());
        for (std::size_t e = 0; e < c.size(); ++e)
            c[e] = static_cast<int>(
                pick.uniform_int(0, space.radices()[e] - 1));
        const util::CVec aos = cache.response_with(
            medium, scenario.link_id, link, scenario.array_id, c);
        cache.response_into(medium, scenario.link_id, link,
                            scenario.array_id, c, scratch);
        ASSERT_EQ(scratch.size(), aos.size());
        for (std::size_t k = 0; k < aos.size(); ++k) {
            EXPECT_EQ(aos[k].real(), scratch.re[k]) << "subcarrier " << k;
            EXPECT_EQ(aos[k].imag(), scratch.im[k]) << "subcarrier " << k;
        }
    }
}

TEST(LinkCache, CoordinateDeltaPathMatchesRecomputeAndDirect) {
    LinkScenario scenario = make_link_scenario(19, false);
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const sdr::Link& link = system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    const util::kernels::Dispatch d = util::kernels::active();

    util::Rng pick(3);
    surface::Config base(space.num_elements());
    for (std::size_t e = 0; e < base.size(); ++e)
        base[e] = static_cast<int>(
            pick.uniform_int(0, space.radices()[e] - 1));

    util::kernels::SplitVec cached_base, fresh, candidate;
    for (std::size_t e = 0; e < space.num_elements(); ++e) {
        cache.response_base_into(medium, scenario.link_id, link,
                                 scenario.array_id, base, e, cached_base);
        // The swept element's own state contributes nothing to the base.
        surface::Config jitter = base;
        jitter[e] = (base[e] + 1) % space.radices()[e];
        cache.response_base_into(medium, scenario.link_id, link,
                                 scenario.array_id, jitter, e, fresh);
        ASSERT_EQ(fresh.size(), cached_base.size());
        for (std::size_t k = 0; k < fresh.size(); ++k) {
            EXPECT_EQ(fresh.re[k], cached_base.re[k]);
            EXPECT_EQ(fresh.im[k], cached_base.im[k]);
        }

        for (int s = 0; s < space.radices()[e]; ++s) {
            // Delta path: copy the coordinate's cached base, add the row.
            candidate.resize(cached_base.size());
            util::kernels::copy(d, cached_base.re.data(),
                                cached_base.im.data(), candidate.re.data(),
                                candidate.im.data(), cached_base.size());
            cache.accumulate_element_row(scenario.link_id,
                                         scenario.array_id, e, s,
                                         candidate);
            // Recompute path: rebuild the base, add the same row.
            cache.response_base_into(medium, scenario.link_id, link,
                                     scenario.array_id, base, e, fresh);
            cache.accumulate_element_row(scenario.link_id,
                                         scenario.array_id, e, s, fresh);
            for (std::size_t k = 0; k < candidate.size(); ++k) {
                EXPECT_EQ(candidate.re[k], fresh.re[k]) << "state " << s;
                EXPECT_EQ(candidate.im[k], fresh.im[k]) << "state " << s;
            }
            // And both are the candidate's response (up to the swept
            // row's summation position — fp association, not value).
            surface::Config c = base;
            c[e] = s;
            const util::CVec full = cache.response_with(
                medium, scenario.link_id, link, scenario.array_id, c);
            util::CVec delta_aos(candidate.size());
            util::kernels::interleave(candidate.re.data(),
                                      candidate.im.data(),
                                      delta_aos.data(), candidate.size());
            EXPECT_LE(relative_error(delta_aos, full), 1e-12)
                << "element " << e << " state " << s;
        }
    }
}

// System keeps ONE cache over all of its links, grouped by transmitter.
// Every link's segment of it must match direct synthesis on the
// multi-link scenes too — the 32-link panel (4 groups of 8) and the
// four-link harmonization scene, whose 102 tones pad to 104.
TEST(LinkCache, MultiLinkScenesMatchDirectSynthesis) {
    MultiLinkScenario multi = make_multi_link_scenario(7);
    HarmonizationScenario harmonization = make_harmonization_scenario(3);
    for (System* system : {&multi.system, &harmonization.system}) {
        const surface::ConfigSpace space =
            system->medium().array(0).config_space();
        util::Rng pick(41);
        for (int trial = 0; trial < 2; ++trial) {
            surface::Config c(space.num_elements());
            for (std::size_t e = 0; e < c.size(); ++e)
                c[e] = static_cast<int>(
                    pick.uniform_int(0, space.radices()[e] - 1));
            system->apply(0, c);
            for (std::size_t id = 0; id < system->num_links(); ++id) {
                const util::CVec cached = system->channel_response(id);
                ASSERT_EQ(cached.size(),
                          system->medium().ofdm().num_used());
                EXPECT_LE(relative_error(cached,
                                         direct_response(*system, id)),
                          1e-12)
                    << "link " << id << " trial " << trial;
            }
        }
        EXPECT_EQ(system->cache_stats().misses, 1u);
    }
    const MultiLinkCache& cache = harmonization.system.multilink_cache();
    EXPECT_EQ(cache.num_sc(), 102u);
    EXPECT_EQ(cache.link_stride(), 104u);
}

// Observing after warm_multilink() reads the warm basis: no second,
// per-link copy of it is built.
TEST(LinkCache, ObserveTrueAfterWarmBuildsNothing) {
    MultiLinkScenario scenario = make_multi_link_scenario(7);
    scenario.system.warm_multilink();
    EXPECT_EQ(scenario.system.cache_stats().misses, 1u);
    const control::Observation obs = scenario.system.observe_true();
    EXPECT_EQ(obs.link_snr_db.size(), scenario.num_links);
    EXPECT_EQ(scenario.system.cache_stats().misses, 1u);
    EXPECT_EQ(scenario.system.cache_stats().hits, scenario.num_links);
}

TEST(LinkCache, MultiLinkEndpointMoveRebuildsAndStaysExact) {
    MultiLinkParams params;
    params.num_aps = 2;
    params.clients_per_ap = 3;
    MultiLinkScenario scenario = make_multi_link_scenario(9, params);
    System& system = scenario.system;
    system.warm_multilink();
    system.link(4).rx.position.y += 0.35;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        EXPECT_LE(relative_error(system.channel_response(id),
                                 direct_response(system, id)),
                  1e-12)
            << "link " << id;
    EXPECT_EQ(system.cache_stats().misses, 2u);
}

TEST(LinkCache, SoundingMatchesUncachedMedium) {
    // The cached facade and the raw Medium must agree on the noisy
    // estimate too, given identical rng streams (same H, same draws).
    LinkScenario scenario = make_link_scenario(17, false);
    util::Rng rng_a(31), rng_b(31);
    const auto est_cached =
        scenario.system.sound(scenario.link_id, rng_a);
    const auto est_direct = scenario.system.medium().sound(
        scenario.system.link(scenario.link_id),
        scenario.system.sounding_repeats(), rng_b);
    ASSERT_EQ(est_cached.h.size(), est_direct.h.size());
    for (std::size_t k = 0; k < est_cached.h.size(); ++k)
        EXPECT_EQ(est_cached.h[k], est_direct.h[k]) << "subcarrier " << k;
}

}  // namespace
}  // namespace press::core
