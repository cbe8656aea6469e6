#include "core/serve.hpp"

#include <map>
#include <memory>

#include "control/objective.hpp"
#include "control/search.hpp"

namespace press::core {

namespace {

using control::MutateRequest;
using control::OptimizeRequest;
using control::ServiceObjective;
using control::ServiceSearcher;

/// QoS-floor preset constants: a 10 dB per-link floor with a 4 dB/dB
/// hinge — firm enough that the search trades peak links for stragglers.
constexpr double kQosPresetFloorDb = 10.0;
constexpr double kQosPresetWeight = 4.0;

std::unique_ptr<control::Objective> make_objective(std::uint8_t selector,
                                                   std::size_t link_id,
                                                   std::size_t num_links) {
    switch (static_cast<ServiceObjective>(selector)) {
        case ServiceObjective::kMinSnr:
            return std::make_unique<control::MinSnrObjective>(link_id);
        case ServiceObjective::kMeanSnr:
            return std::make_unique<control::MeanSnrObjective>(link_id);
        case ServiceObjective::kMaxMinFair:
            return control::make_max_min_objective(num_links);
        case ServiceObjective::kSumMean:
            return control::make_sum_mean_objective(num_links);
        case ServiceObjective::kQosFloor:
            return control::make_qos_floor_objective(
                num_links, kQosPresetFloorDb, kQosPresetWeight);
        case ServiceObjective::kNullVictim:
            if (num_links < 2) return nullptr;
            return control::make_nulling_objective(num_links, link_id);
    }
    return nullptr;
}

std::unique_ptr<control::Searcher> make_searcher(std::uint8_t selector) {
    switch (static_cast<ServiceSearcher>(selector)) {
        case ServiceSearcher::kGreedy:
            return std::make_unique<control::GreedyCoordinateDescent>();
        case ServiceSearcher::kExhaustive:
            return std::make_unique<control::ExhaustiveSearcher>();
        case ServiceSearcher::kRandom:
            return std::make_unique<control::RandomSearcher>();
        case ServiceSearcher::kAnnealing:
            return std::make_unique<control::SimulatedAnnealingSearcher>();
        case ServiceSearcher::kGenetic:
            return std::make_unique<control::GeneticSearcher>();
    }
    return nullptr;
}

/// Shared mutable state the callback bundle closes over.
struct EngineState {
    util::Rng rng;
    /// Bumped by every landed mutation; folded into scene_revision so
    /// the service can detect a mutation landing mid-cycle.
    std::uint64_t mutations = 0;
    /// Last known-good configuration per array (watchdog restore point).
    std::map<std::size_t, surface::Config> known_good;
};

}  // namespace

control::ServiceEngine make_service_engine(System& system,
                                           const ServeConfig& config) {
    auto state = std::make_shared<EngineState>();
    state->rng = util::Rng(config.seed);
    System* sys = &system;
    const control::ControlPlaneModel plane = config.plane;
    const std::size_t threads = config.threads;

    control::ServiceEngine engine;

    engine.validate = [sys](const OptimizeRequest& req) {
        if (req.array_id >= sys->medium().num_arrays()) return false;
        if (req.link_id >= sys->num_links()) return false;
        if (make_objective(req.objective, req.link_id, sys->num_links()) ==
            nullptr)
            return false;
        if (make_searcher(req.searcher) == nullptr) return false;
        return true;
    };

    engine.validate_mutate = [sys](const MutateRequest& req) {
        if (req.array_id >= sys->medium().num_arrays()) return false;
        const auto& array = sys->medium().array(req.array_id);
        if (req.element >= array.size()) return false;
        surface::Config probe = array.current_config();
        probe[req.element] = req.state;
        return array.config_space().valid(probe);
    };

    engine.optimize = [sys, state, plane, threads](
                          const OptimizeRequest& req,
                          double budget_s) -> control::EngineResult {
        control::EngineResult out;
        const auto objective =
            make_objective(req.objective, req.link_id, sys->num_links());
        const auto searcher = make_searcher(req.searcher);
        if (objective == nullptr || searcher == nullptr) return out;
        const control::OptimizationOutcome outcome =
            sys->optimize_fast(req.array_id, *objective, *searcher, plane,
                               budget_s, state->rng, threads);
        out.ok = outcome.final_apply_ok &&
                 !outcome.search.best_config.empty() &&
                 outcome.search.best_score > control::kFailedTrialScore;
        out.best_score = outcome.search.best_score_remeasured;
        out.evaluations =
            static_cast<std::uint32_t>(outcome.search.evaluations);
        out.sim_elapsed_s = outcome.elapsed_s;
        out.compute_s = outcome.search.compute_s;
        return out;
    };

    engine.mutate = [sys, state](const MutateRequest& req) {
        if (req.array_id >= sys->medium().num_arrays()) return false;
        const auto& array = sys->medium().array(req.array_id);
        if (req.element >= array.size()) return false;
        surface::Config config = array.current_config();
        config[req.element] = req.state;
        if (!array.config_space().valid(config)) return false;
        sys->apply(req.array_id, config);
        ++state->mutations;
        return true;
    };

    engine.checkpoint = [sys, state]() {
        for (std::size_t id = 0; id < sys->medium().num_arrays(); ++id)
            state->known_good[id] = sys->medium().array(id).current_config();
    };

    engine.revert = [sys, state]() {
        if (state->known_good.empty()) return false;
        for (const auto& [id, config] : state->known_good) {
            if (id < sys->medium().num_arrays() && !config.empty())
                sys->apply(id, config);
        }
        return true;
    };

    engine.scene_revision = [sys, state]() {
        // Configuration applies (optimize_fast's own final apply) must
        // NOT move this stamp — only structural changes and landed
        // mutations do. 0x9E37...: Fibonacci hashing mixes the counter.
        std::uint64_t rev = sys->medium().environment().revision();
        for (std::size_t id = 0; id < sys->medium().num_arrays(); ++id)
            rev = rev * 31 + sys->medium().array(id).structure_revision();
        return rev ^ (state->mutations * 0x9E3779B97F4A7C15ull);
    };

    // Seed the restore point with the boot configuration so a watchdog
    // trip before the first healthy cycle still has somewhere to go.
    engine.checkpoint();

    return engine;
}

}  // namespace press::core
