// Massive-element (RFocus-regime) scaling properties: the 1,000+ element
// scene builds and warms, the tiled-SoA basis stays bit-faithful to
// direct synthesis, the sharded BatchEvaluator and the majority-vote
// searcher are bit-reproducible across worker counts, and the vote
// searcher actually solves separable problems on a fraction of greedy's
// budget. The 2^1024 config space means nothing here may call
// ConfigSpace::size() or at() on the massive scene.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "control/batch.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/link_cache.hpp"
#include "core/scenarios.hpp"
#include "core/system.hpp"
#include "em/channel.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace press::core {
namespace {

using control::BatchEvaluator;
using control::ControlPlaneModel;
using control::GreedyCoordinateDescent;
using control::MajorityVoteSearcher;
using control::MinSnrObjective;
using control::RandomizedPartitionSearcher;
using control::SearchResult;

surface::Config random_config(const surface::ConfigSpace& space,
                              util::Rng& rng) {
    const std::vector<int>& radices = space.radices();
    surface::Config c(space.num_elements());
    for (std::size_t e = 0; e < c.size(); ++e)
        c[e] = static_cast<int>(rng.uniform_int(0, radices[e] - 1));
    return c;
}

TEST(MassiveScenario, ShapeAndBasisLayout) {
    LinkScenario scenario = make_massive_scenario(1024, 5);
    const sdr::Medium& medium = scenario.system.medium();
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    ASSERT_EQ(space.num_elements(), 1024u);
    for (const int radix : space.radices()) EXPECT_EQ(radix, 2);
    // 2^1024 points: counting the space must refuse, not wrap.
    EXPECT_THROW((void)space.size(), std::overflow_error);

    LinkCache cache;
    cache.warm(medium, scenario.link_id,
               scenario.system.link(scenario.link_id));
    const LinkCache::BasisLayout layout =
        cache.basis_layout(scenario.link_id, scenario.array_id);
    EXPECT_EQ(layout.rows, 2048u);  // 1024 elements x 2 states
    EXPECT_EQ(layout.num_sc, medium.ofdm().num_used());
    // Rows are padded to the kernel lane width and stored as one
    // contiguous [re | im] block per row.
    EXPECT_GE(layout.row_stride, layout.num_sc);
    EXPECT_EQ(layout.row_stride % util::kernels::kLanes, 0u);
    EXPECT_EQ(layout.bytes,
              layout.rows * 2 * layout.row_stride * sizeof(double));
}

TEST(MassiveScenario, TiledBasisMatchesDirectSynthesis) {
    // Small enough that re-tracing per configuration is affordable, big
    // enough that the subcarrier tiling and row blocking are exercised
    // with many gathered rows.
    LinkScenario scenario = make_massive_scenario(96, 11);
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    util::Rng rng(3);
    for (int trial = 0; trial < 4; ++trial) {
        scenario.system.apply(scenario.array_id, random_config(space, rng));
        const util::CVec cached =
            scenario.system.channel_response(scenario.link_id);
        const util::CVec direct = em::frequency_response(
            scenario.system.medium().resolve_paths(
                scenario.system.link(scenario.link_id)),
            scenario.system.medium().ofdm().used_frequencies_hz());
        ASSERT_EQ(cached.size(), direct.size());
        for (std::size_t k = 0; k < cached.size(); ++k) {
            EXPECT_DOUBLE_EQ(cached[k].real(), direct[k].real());
            EXPECT_DOUBLE_EQ(cached[k].imag(), direct[k].imag());
        }
    }
}

// The sharded evaluator must produce bitwise-identical result vectors
// for any worker count: per-candidate rng streams hang off the global
// candidate index, never off the shard or thread that ran them.
TEST(MassiveSearch, ShardedEvaluatorBitIdenticalAcrossThreadCounts) {
    const auto run = [](std::size_t threads) {
        BatchEvaluator pool(
            [](const surface::Config& c, util::Rng& rng,
               control::EvalScratch&) {
                double acc = rng.uniform(0.0, 1.0);
                for (const int s : c) acc += s;
                return acc;
            },
            /*seed=*/99, threads);
        std::vector<surface::Config> batch;
        util::Rng rng(7);
        for (std::size_t i = 0; i < 1000; ++i) {
            surface::Config c(64);
            for (auto& s : c) s = static_cast<int>(rng.uniform_int(0, 3));
            batch.push_back(std::move(c));
        }
        return pool.evaluate(batch);
    };
    const std::vector<double> one = run(1);
    const std::vector<double> three = run(3);
    const std::vector<double> eight = run(8);
    EXPECT_EQ(one, three);
    EXPECT_EQ(one, eight);
}

TEST(MassiveSearch, ShardSizePolicy) {
    // ~4 shards per worker, never empty, floor of one task per shard so
    // small batches keep per-candidate parallelism.
    EXPECT_EQ(BatchEvaluator::shard_size_for(0, 8), 1u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4, 8), 1u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(64, 8), 2u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8), 128u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 1), 1024u);
}

// The tentpole reproducibility property: a majority-vote search over a
// 1,024-element scene lands on the same configuration, bit for bit, no
// matter how many evaluator threads score its probe batches.
TEST(MassiveSearch, MajorityVoteBitIdenticalAcrossThreads) {
    const ControlPlaneModel plane = ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(1024, 0);
    const double trial_s = plane.config_trial_time_s(probe, 1, 64);
    const double budget_s = 200.0 * trial_s;  // ~3 vote rounds

    const auto run = [&](std::size_t threads) {
        LinkScenario scenario = make_massive_scenario(1024, 42);
        util::Rng rng(17);
        const auto outcome = scenario.system.optimize_fast(
            scenario.array_id, MinSnrObjective(0), MajorityVoteSearcher(),
            plane, budget_s, rng, threads);
        return outcome.search;
    };
    const SearchResult base = run(1);
    const SearchResult threaded = run(8);
    EXPECT_EQ(base.best_config, threaded.best_config);
    EXPECT_EQ(base.best_score, threaded.best_score);
    EXPECT_EQ(base.evaluations, threaded.evaluations);
    EXPECT_GT(base.evaluations, 0u);
    EXPECT_EQ(base.trajectory.size(), base.evaluations);
}

TEST(MassiveSearch, PartitionSearcherDeterministicAndBudgeted) {
    const surface::ConfigSpace space(std::vector<int>(512, 2));
    const auto eval = [](const surface::Config& c) {
        double acc = 0.0;
        for (std::size_t e = 0; e < c.size(); ++e)
            acc += c[e] == static_cast<int>(e % 2) ? 1.0 : 0.0;
        return acc;
    };
    const RandomizedPartitionSearcher searcher;
    util::Rng a(5), b(5);
    const SearchResult ra = searcher.search(space, eval, 300, a);
    const SearchResult rb = searcher.search(space, eval, 300, b);
    EXPECT_EQ(ra.best_config, rb.best_config);
    EXPECT_EQ(ra.best_score, rb.best_score);
    EXPECT_LE(ra.evaluations, 300u);
    EXPECT_EQ(ra.trajectory.size(), ra.evaluations);
    // Partition moves must actually improve on the random seed config.
    util::Rng c(5);
    EXPECT_GE(ra.best_score, eval(random_config(space, c)));
}

// On a separable objective (per-element match against a hidden target)
// the vote searcher must recover most of the target with a budget far
// below one evaluation per element — the regime greedy cannot touch,
// since its first sweep alone costs n evaluations. Full recovery is
// statistically out of reach here by design: one element's signal is a
// 1/1024 sliver of each score while the other elements contribute
// ~14 score units of sampling noise, so ~520 probes support ~75%
// per-element accuracy for *any* probing scheme. The bar is therefore a
// large deterministic gain over the random-config expectation (n/2),
// not near-perfect recovery.
TEST(MassiveSearch, MajorityVoteSolvesSeparableProblemCheaply) {
    constexpr std::size_t kElements = 1024;
    const surface::ConfigSpace space(std::vector<int>(kElements, 2));
    surface::Config target(kElements);
    util::Rng trng(123);
    for (auto& s : target) s = static_cast<int>(trng.uniform_int(0, 1));
    const auto eval = [&](const surface::Config& c) {
        double acc = 0.0;
        for (std::size_t e = 0; e < kElements; ++e)
            if (c[e] == target[e]) acc += 1.0;
        return acc;
    };
    const MajorityVoteSearcher searcher;
    util::Rng rng(9);
    const std::size_t budget = 520;  // ~half an eval per element
    const SearchResult result = searcher.search(space, eval, budget, rng);
    EXPECT_LE(result.evaluations, budget);
    // >= 70% of elements matched: ~13 sigma above the random baseline.
    EXPECT_GE(result.best_score, 0.70 * static_cast<double>(kElements));
}

// Greedy at 2,048 elements exercises the up-front memo reservation and
// the entry cap: the sweep must stay within budget and complete without
// pathological memo growth (the perf_snapshot operator-new gate covers
// the no-allocation side; this covers correctness at scale).
TEST(MassiveSearch, GreedyCoordinateDescentHandlesLargeSpaces) {
    constexpr std::size_t kElements = 2048;
    const surface::ConfigSpace space(std::vector<int>(kElements, 2));
    const auto eval = [](const surface::Config& c) {
        double acc = 0.0;
        for (std::size_t e = 0; e < c.size(); ++e)
            acc += c[e] == 1 ? static_cast<double>(e % 7) : 0.0;
        return acc;
    };
    const GreedyCoordinateDescent searcher;
    util::Rng rng(31);
    const SearchResult result = searcher.search(space, eval, 3000, rng);
    EXPECT_LE(result.evaluations, 3000u);
    EXPECT_GT(result.best_score, 0.0);
    EXPECT_EQ(result.trajectory.size(), result.evaluations);
}

}  // namespace
}  // namespace press::core
