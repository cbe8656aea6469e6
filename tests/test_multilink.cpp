// Multi-user, multi-objective control over the shared basis: the
// MultiLinkCache's stacked wide rows must be bit-faithful to N
// independent LinkCaches, the composite objective combinators must be
// exact algebra, and optimize_multilink must keep the determinism
// contract — bit-identical results across thread counts — while routing
// composite presets through the service engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "control/batch.hpp"
#include "control/message.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/link_cache.hpp"
#include "core/multilink_cache.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/system.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace press::core {
namespace {

using control::BatchEvaluator;
using control::ControlPlaneModel;
using control::FusedSpec;
using control::GreedyCoordinateDescent;
using control::LinkTerm;
using control::MajorityVoteSearcher;
using control::MultiLinkObjective;
using control::MultiLinkProblem;
using control::MultiLinkSpec;
using control::Observation;
using control::SearchResult;

/// A small N-link scene the bit-identity tests can afford to re-trace:
/// 2 APs x 2 clients over a 6-element 4-phase panel.
MultiLinkParams small_params() {
    MultiLinkParams p;
    p.num_aps = 2;
    p.clients_per_ap = 2;
    p.num_elements = 6;
    p.num_states = 4;
    return p;
}

surface::Config random_config(const surface::ConfigSpace& space,
                              util::Rng& rng) {
    const std::vector<int>& radices = space.radices();
    surface::Config c(space.num_elements());
    for (std::size_t e = 0; e < c.size(); ++e)
        c[e] = static_cast<int>(rng.uniform_int(0, radices[e] - 1));
    return c;
}

TEST(MultiLinkScene, ShapeAndGrouping) {
    MultiLinkScenario scenario = make_multi_link_scenario(7);
    ASSERT_EQ(scenario.num_aps, 4u);
    ASSERT_EQ(scenario.clients_per_ap, 8u);
    ASSERT_EQ(scenario.num_links, 32u);
    ASSERT_EQ(scenario.system.num_links(), 32u);

    scenario.system.warm_multilink();
    const MultiLinkCache& cache = scenario.system.multilink_cache();
    ASSERT_TRUE(cache.warmed());
    // One group per AP: links are AP-major, so group a holds links
    // a*8 .. a*8+7 in slot order 0..7.
    ASSERT_EQ(cache.num_groups(), scenario.num_aps);
    ASSERT_EQ(cache.num_links(), scenario.num_links);
    EXPECT_GE(cache.num_sc(), 1u);
    EXPECT_EQ(cache.link_stride() % util::kernels::kLanes, 0u);
    EXPECT_GE(cache.link_stride(), cache.num_sc());
    for (std::size_t a = 0; a < scenario.num_aps; ++a) {
        const std::vector<std::size_t>& members = cache.group_links(a);
        ASSERT_EQ(members.size(), scenario.clients_per_ap);
        EXPECT_EQ(cache.group_width(a),
                  scenario.clients_per_ap * cache.link_stride());
        for (std::size_t c = 0; c < members.size(); ++c) {
            const std::size_t id = a * scenario.clients_per_ap + c;
            EXPECT_EQ(members[c], id);
            const MultiLinkCache::LinkView view = cache.view(id);
            EXPECT_EQ(view.group, a);
            EXPECT_EQ(view.slot, c);
            EXPECT_EQ(view.offset, c * cache.link_stride());
        }
    }
    EXPECT_GE(scenario.system.multilink_cache_stats().rebuilds, 1u);

    // The honest memory story: table bytes match the naive side (every
    // row exists once either way); the sharing wins on metadata.
    const MultiLinkCache::MemoryStats mem = cache.memory_stats();
    EXPECT_EQ(mem.shared_table_bytes, mem.naive_table_bytes);
    EXPECT_LT(mem.shared_metadata_bytes, mem.naive_metadata_bytes);
    EXPECT_GT(mem.shared_table_bytes, 0u);
}

// The tentpole bit-identity contract: each link's segment of the wide
// group response is bitwise what its own LinkCache would have produced.
TEST(MultiLinkCacheTest, SharedBasisMatchesPerLinkCaches) {
    MultiLinkScenario scenario = make_multi_link_scenario(11, small_params());
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();

    system.warm_multilink();
    const MultiLinkCache& shared = system.multilink_cache();
    LinkCache naive;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        naive.warm(medium, id, system.link(id));

    util::kernels::SplitVec wide, narrow;
    util::Rng rng(23);
    for (int trial = 0; trial < 4; ++trial) {
        const surface::Config config = random_config(space, rng);
        for (std::size_t g = 0; g < shared.num_groups(); ++g) {
            shared.group_response_into(medium, g, scenario.array_id,
                                       config, wide);
            ASSERT_EQ(wide.size(), shared.group_width(g));
            for (const std::size_t id : shared.group_links(g)) {
                const MultiLinkCache::LinkView view = shared.view(id);
                naive.response_into(medium, id, system.link(id),
                                    scenario.array_id, config, narrow);
                ASSERT_EQ(narrow.size(), shared.num_sc());
                for (std::size_t k = 0; k < narrow.size(); ++k) {
                    EXPECT_EQ(wide.re[view.offset + k], narrow.re[k])
                        << "link " << id << " sc " << k;
                    EXPECT_EQ(wide.im[view.offset + k], narrow.im[k])
                        << "link " << id << " sc " << k;
                }
                // Segment padding past num_sc stays zero.
                for (std::size_t k = narrow.size();
                     k < shared.link_stride(); ++k) {
                    EXPECT_EQ(wide.re[view.offset + k], 0.0);
                    EXPECT_EQ(wide.im[view.offset + k], 0.0);
                }
            }
        }
    }
}

// The coordinate-sweep delta arithmetic: copying a cached wide base and
// adding one wide element row is bitwise the same as recomputing the
// base and adding the row, and each link's segment matches LinkCache's
// own base+row path bit for bit.
TEST(MultiLinkCacheTest, DeltaPathMatchesPerLinkDelta) {
    MultiLinkScenario scenario = make_multi_link_scenario(13, small_params());
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();

    system.warm_multilink();
    const MultiLinkCache& shared = system.multilink_cache();
    LinkCache naive;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        naive.warm(medium, id, system.link(id));

    util::Rng rng(29);
    const surface::Config base = random_config(space, rng);
    util::kernels::SplitVec cached_base, fresh, candidate, narrow;
    const util::kernels::Dispatch d = util::kernels::active();
    for (std::size_t g = 0; g < shared.num_groups(); ++g) {
        for (std::size_t e = 0; e < base.size(); ++e) {
            shared.group_response_base_into(medium, g, scenario.array_id,
                                            base, e, cached_base);
            for (int s = 0; s < space.radices()[e]; ++s) {
                // Delta path: copy the cached base, add the wide row.
                candidate.resize(cached_base.size());
                util::kernels::copy(d, cached_base.re.data(),
                                    cached_base.im.data(),
                                    candidate.re.data(),
                                    candidate.im.data(),
                                    cached_base.size());
                shared.accumulate_group_element_row(g, scenario.array_id,
                                                    e, s, candidate);
                // Recompute path: fresh base, same row.
                shared.group_response_base_into(medium, g,
                                                scenario.array_id, base,
                                                e, fresh);
                shared.accumulate_group_element_row(g, scenario.array_id,
                                                    e, s, fresh);
                ASSERT_EQ(candidate.size(), fresh.size());
                for (std::size_t k = 0; k < candidate.size(); ++k) {
                    EXPECT_EQ(candidate.re[k], fresh.re[k]);
                    EXPECT_EQ(candidate.im[k], fresh.im[k]);
                }
                // Per-link segments match LinkCache's base+row bits.
                for (const std::size_t id : shared.group_links(g)) {
                    const MultiLinkCache::LinkView view = shared.view(id);
                    naive.response_base_into(medium, id, system.link(id),
                                             scenario.array_id, base, e,
                                             narrow);
                    naive.accumulate_element_row(id, scenario.array_id, e,
                                                 s, narrow);
                    for (std::size_t k = 0; k < narrow.size(); ++k) {
                        EXPECT_EQ(candidate.re[view.offset + k],
                                  narrow.re[k])
                            << "link " << id << " element " << e
                            << " state " << s;
                        EXPECT_EQ(candidate.im[view.offset + k],
                                  narrow.im[k])
                            << "link " << id << " element " << e
                            << " state " << s;
                    }
                }
            }
        }
    }
}

// QoS hinge algebra: u = weight*v - qos_weight*max(0, floor - v).
TEST(MultiLinkObjectiveTest, TermUtilityHingeExact) {
    LinkTerm plain;
    plain.weight = 2.0;
    EXPECT_EQ(MultiLinkObjective::term_utility(plain, 7.5), 15.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(plain, -3.0), -6.0);

    LinkTerm qos;
    qos.weight = 1.0;
    qos.qos_floor_db = 10.0;
    qos.qos_weight = 4.0;
    // Above the floor: no penalty, exactly weight * v.
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 12.0), 12.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 10.0), 10.0);
    // Below: weight*v - qos_weight*(floor - v).
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 8.0),
              8.0 - 4.0 * 2.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, -2.0),
              -2.0 - 4.0 * 12.0);

    // Negative weight = nulling: utility improves as the victim drops.
    LinkTerm null;
    null.weight = -1.5;
    EXPECT_EQ(MultiLinkObjective::term_utility(null, 20.0), -30.0);
    EXPECT_GT(MultiLinkObjective::term_utility(null, 5.0),
              MultiLinkObjective::term_utility(null, 6.0));
}

// Max-min monotonicity: the combined score is the worst term utility,
// and raising any single utility never lowers the combined score.
TEST(MultiLinkObjectiveTest, MaxMinCombineMonotone) {
    MultiLinkSpec spec;
    spec.terms.resize(5);
    spec.combine = MultiLinkSpec::Combine::kMaxMin;
    util::Rng rng(41);
    for (int trial = 0; trial < 32; ++trial) {
        std::vector<double> u(5);
        for (double& v : u) v = rng.uniform(-30.0, 40.0);
        const double combined = MultiLinkObjective::combine(spec, u.data());
        EXPECT_EQ(combined, *std::min_element(u.begin(), u.end()));
        for (std::size_t i = 0; i < u.size(); ++i) {
            std::vector<double> raised = u;
            raised[i] += rng.uniform(0.0, 10.0);
            EXPECT_GE(MultiLinkObjective::combine(spec, raised.data()),
                      combined);
        }
    }
}

// Weighted-sum score through the general Observation path must equal the
// manually combined per-term utilities.
TEST(MultiLinkObjectiveTest, WeightedSumScoreMatchesManual) {
    Observation obs;
    obs.link_snr_db = {{12.0, 8.0, 15.0}, {3.0, 5.0, 4.0}, {22.0, 19.0}};

    MultiLinkSpec spec;
    LinkTerm a;  // mean of link 0, weight 2
    a.link = 0;
    a.weight = 2.0;
    LinkTerm b;  // min of link 1 with a 10 dB floor
    b.link = 1;
    b.reduce = FusedSpec::Kind::kMinSnr;
    b.qos_floor_db = 10.0;
    b.qos_weight = 4.0;
    LinkTerm c;  // null link 2
    c.link = 2;
    c.weight = -1.0;
    spec.terms = {a, b, c};

    const MultiLinkObjective objective(spec);
    const double mean0 = util::mean(obs.link_snr_db[0]);
    const double min1 = util::min_value(obs.link_snr_db[1]);
    const double mean2 = util::mean(obs.link_snr_db[2]);
    const double expected = 2.0 * mean0 +
                            (min1 - 4.0 * (10.0 - min1)) + (-1.0 * mean2);
    EXPECT_DOUBLE_EQ(objective.score(obs), expected);
    EXPECT_NE(objective.multilink_spec(), nullptr);

    // Max-min over the same terms: worst utility wins.
    MultiLinkSpec mm = spec;
    mm.combine = MultiLinkSpec::Combine::kMaxMin;
    const double worst = std::min({2.0 * mean0,
                                   min1 - 4.0 * (10.0 - min1),
                                   -1.0 * mean2});
    EXPECT_DOUBLE_EQ(MultiLinkObjective(mm).score(obs), worst);
}

TEST(MultiLinkObjectiveTest, ProblemBuilderComposesSpec) {
    const auto objective = MultiLinkProblem()
                               .serve(0, 2.0)
                               .qos_floor(1, 10.0, 4.0)
                               .null(2, 1.5)
                               .max_min()
                               .build("scene");
    const MultiLinkSpec* spec = objective->multilink_spec();
    ASSERT_NE(spec, nullptr);
    ASSERT_EQ(spec->terms.size(), 3u);
    EXPECT_EQ(spec->combine, MultiLinkSpec::Combine::kMaxMin);
    EXPECT_EQ(spec->terms[0].link, 0u);
    EXPECT_EQ(spec->terms[0].weight, 2.0);
    EXPECT_EQ(spec->terms[1].qos_floor_db, 10.0);
    EXPECT_EQ(spec->terms[1].qos_weight, 4.0);
    EXPECT_EQ(spec->terms[2].weight, -1.5);
    EXPECT_EQ(objective->name(), "scene");

    const auto maxmin = control::make_max_min_objective(4);
    ASSERT_NE(maxmin->multilink_spec(), nullptr);
    EXPECT_EQ(maxmin->multilink_spec()->terms.size(), 4u);
    EXPECT_EQ(maxmin->multilink_spec()->combine,
              MultiLinkSpec::Combine::kMaxMin);
    const auto null = control::make_nulling_objective(3, 1, 2.0);
    ASSERT_EQ(null->multilink_spec()->terms.size(), 3u);
    EXPECT_EQ(null->multilink_spec()->terms[1].weight, -2.0);
}

// Weighted sharding: a task that reads `w` group tiles per evaluation
// shrinks the shard so one shard stays a bounded unit of work; the
// floor of one task per shard is preserved (a task never splits).
TEST(MultiLinkBatch, WeightedShardSizePolicy) {
    // weight 1 defers to the unweighted policy.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 1),
              BatchEvaluator::shard_size_for(4096, 8));
    // Cap = max(1, 64 / weight), never above the unweighted size.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 2), 32u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 32), 2u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 64), 1u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 1000), 1u);
    // Small batches keep the unweighted (already small) shard.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4, 8, 32), 1u);
}

// The headline determinism contract, extended to composite objectives:
// optimize_multilink lands on the same configuration, bit for bit, for
// any evaluator thread count — for both the batched vote searcher and the
// delta-sweeping greedy searcher.
TEST(MultiLinkSearch, BitIdenticalAcrossThreads) {
    const MultiLinkParams params = small_params();
    const ControlPlaneModel plane = ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(static_cast<std::size_t>(params.num_elements), 0);

    const auto run = [&](std::size_t threads,
                         const control::Searcher& searcher,
                         const control::Objective& objective) {
        MultiLinkScenario scenario = make_multi_link_scenario(19, params);
        const double trial_s = plane.config_trial_time_s(
            probe, scenario.num_links,
            scenario.system.medium().ofdm().num_used());
        util::Rng rng(17);
        const auto outcome = scenario.system.optimize_multilink(
            scenario.array_id, objective, searcher, plane,
            120.0 * trial_s, rng, threads);
        EXPECT_TRUE(outcome.final_apply_ok);
        return outcome.search;
    };

    const auto maxmin = control::make_max_min_objective(4);
    const auto nulling = control::make_nulling_objective(4, 3);
    const GreedyCoordinateDescent greedy;
    const MajorityVoteSearcher vote;
    const struct {
        const control::Searcher& searcher;
        const control::Objective& objective;
    } cases[] = {{greedy, *maxmin},
                 {vote, *maxmin},
                 {greedy, *nulling}};
    for (const auto& c : cases) {
        const SearchResult base = run(1, c.searcher, c.objective);
        const SearchResult threaded = run(8, c.searcher, c.objective);
        EXPECT_EQ(base.best_config, threaded.best_config);
        EXPECT_EQ(base.best_score, threaded.best_score);
        EXPECT_EQ(base.evaluations, threaded.evaluations);
        EXPECT_GT(base.evaluations, 0u);
        EXPECT_GT(base.best_score, control::kFailedTrialScore);
    }
}

// optimize_multilink is optimize_fast under another name: both entry
// points return the same SearchResult bits for every scoring mode — a
// masked single link (the RU mask must be honored by both), fused min
// and mean, a composite max-min, and the general path.
TEST(MultiLinkSearch, EntryPointsAgreeBitForBit) {
    class UnfusedMinSnr : public control::Objective {
    public:
        double score(const Observation& obs) const override {
            return control::MinSnrObjective(5).score(obs);
        }
        std::string name() const override { return "unfused-min-snr"; }
    };
    const auto expect_same = [](const SearchResult& a, const SearchResult& b,
                                const char* what) {
        EXPECT_EQ(a.best_config, b.best_config) << what;
        EXPECT_EQ(a.best_score, b.best_score) << what;
        EXPECT_EQ(a.best_score_remeasured, b.best_score_remeasured) << what;
        EXPECT_EQ(a.evaluations, b.evaluations) << what;
        EXPECT_EQ(a.trajectory, b.trajectory) << what;
    };
    const GreedyCoordinateDescent greedy;
    const ControlPlaneModel plane = ControlPlaneModel::fast();

    const control::MaskedSnrObjective masked(
        make_wideband_scenario(33).mask, FusedSpec::Kind::kMinSnr);
    SearchResult wide[2];
    for (const bool multi : {false, true}) {
        WidebandScenario scenario = make_wideband_scenario(33);
        util::Rng rng(21);
        wide[multi] =
            (multi ? scenario.system.optimize_multilink(
                         scenario.array_id, masked, greedy, plane, 0.05,
                         rng, 1)
                   : scenario.system.optimize_fast(scenario.array_id,
                                                   masked, greedy, plane,
                                                   0.05, rng, 1))
                .search;
    }
    expect_same(wide[0], wide[1], "masked");
    EXPECT_GT(wide[0].evaluations, 0u);

    const control::MinSnrObjective min_snr(3);
    const control::MeanSnrObjective mean_snr(12);
    const auto max_min = control::make_max_min_objective(32);
    const UnfusedMinSnr unfused;
    const struct {
        const control::Objective& objective;
        const char* what;
    } cases[] = {{min_snr, "min"},
                 {mean_snr, "mean"},
                 {*max_min, "max-min"},
                 {unfused, "general"}};
    for (const auto& c : cases) {
        SearchResult r[2];
        for (const bool multi : {false, true}) {
            MultiLinkScenario scenario = make_multi_link_scenario(7);
            util::Rng rng(17);
            r[multi] = (multi ? scenario.system.optimize_multilink(
                                    scenario.array_id, c.objective, greedy,
                                    plane, 0.2, rng, 2)
                              : scenario.system.optimize_fast(
                                    scenario.array_id, c.objective, greedy,
                                    plane, 0.2, rng, 2))
                           .search;
        }
        expect_same(r[0], r[1], c.what);
        EXPECT_GT(r[0].evaluations, 0u) << c.what;
    }
}

// Shared-basis accounting: an optimize cycle rebuilds once, then every
// batched evaluation is warm reads.
TEST(MultiLinkSearch, SharedBasisStaysWarmAcrossSearch) {
    MultiLinkScenario scenario = make_multi_link_scenario(31, small_params());
    const ControlPlaneModel plane = ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(6, 0);
    const double trial_s = plane.config_trial_time_s(
        probe, scenario.num_links,
        scenario.system.medium().ofdm().num_used());
    const auto objective = control::make_sum_mean_objective(4);
    util::Rng rng(3);
    const auto outcome = scenario.system.optimize_multilink(
        scenario.array_id, *objective, MajorityVoteSearcher(), plane,
        100.0 * trial_s, rng, 2);
    EXPECT_GT(outcome.search.evaluations, 0u);
    const System::MultiLinkStats stats =
        scenario.system.multilink_cache_stats();
    EXPECT_EQ(stats.rebuilds, 1u);
    EXPECT_GT(stats.hits, 0u);
}

// Composite presets ride the existing wire format: selectors >= 3
// validate against the live scene and run through optimize_multilink.
TEST(MultiLinkService, PresetsValidateAndOptimize) {
    MultiLinkScenario scenario = make_multi_link_scenario(5, small_params());
    ServeConfig config;
    config.threads = 1;
    control::ServiceEngine engine =
        make_service_engine(scenario.system, config);

    control::OptimizeRequest req;
    req.array_id = 0;
    req.searcher =
        static_cast<std::uint8_t>(control::ServiceSearcher::kGreedy);
    for (const auto preset : {control::ServiceObjective::kMaxMinFair,
                              control::ServiceObjective::kSumMean,
                              control::ServiceObjective::kQosFloor,
                              control::ServiceObjective::kNullVictim}) {
        req.objective = static_cast<std::uint8_t>(preset);
        EXPECT_TRUE(engine.validate(req))
            << "preset " << static_cast<int>(preset);
    }
    req.objective = 200;
    EXPECT_FALSE(engine.validate(req));

    // One composite cycle end to end.
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kMaxMinFair);
    const control::EngineResult result = engine.optimize(req, 5e-3);
    EXPECT_TRUE(result.ok);
    EXPECT_GT(result.evaluations, 0u);

    // Nulling needs a victim AND a served link: a single-link scene must
    // reject the preset at validation.
    LinkScenario single = make_link_scenario(5, /*line_of_sight=*/false);
    control::ServiceEngine single_engine =
        make_service_engine(single.system, config);
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kNullVictim);
    req.link_id = 0;
    EXPECT_FALSE(single_engine.validate(req));
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kMinSnr);
    EXPECT_TRUE(single_engine.validate(req));
}

}  // namespace
}  // namespace press::core
