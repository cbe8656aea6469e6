// The scenes the workloads optimize, built only through the program's
// public entry points (core::make_*_scenario, System::optimize_fast,
// System::optimize_multilink).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "control/objective.hpp"
#include "control/search.hpp"
#include "core/scenarios.hpp"

namespace perfbench {

enum class Kind {
    kMassive,    ///< massive_vote: 1,024 two-state elements, majority vote
    kWideband,   ///< wideband_masked: 996 tones, punctured mask, greedy
    kMultiuser,  ///< multiuser_maxmin: 4 APs x 8 clients, max-min greedy
    kStudy,      ///< pressd_open_loop: the daemon's study-room scene
};

/// Fixed shape of one workload's optimize cycle.
struct KindSpec {
    const char* workload = "";
    /// Evaluator threads per cycle (pressd serves with --threads 1).
    std::size_t threads = 2;
    /// Search budget in control-plane trials (the cycle then adds its
    /// three remeasure evaluations).
    std::size_t trials = 0;
    /// Candidates per BatchEvaluator batch in the search's steady state.
    std::size_t batch_size = 0;
};

const KindSpec& spec_of(Kind kind);
std::optional<Kind> kind_of(const std::string& workload);

/// Scenes a run cycles through, so the reported medians span many
/// geometries of one seed instead of a few draws: the wideband scene's
/// min-SNR spreads over roughly 8-25 dB between scenes.
inline constexpr std::size_t kScenes = 32;

struct Scene {
    Kind kind = Kind::kMassive;
    std::optional<press::core::LinkScenario> link_sc;
    std::optional<press::core::WidebandScenario> wide_sc;
    std::optional<press::core::MultiLinkScenario> multi_sc;
    std::unique_ptr<press::control::Objective> objective;
    std::unique_ptr<press::control::Searcher> searcher;
    double budget_s = 0.0;

    press::core::System& system();
    std::size_t array_id() const;
    /// The scored link of single-link scenes (0 for multiuser).
    std::size_t link_id() const;
};

/// Builds the scene only (make_*_scenario, objective, searcher, budget).
std::unique_ptr<Scene> build_scene(Kind kind, std::uint64_t scene_seed);

/// Warms the system's own channel cache through a public entry point:
/// System::channel_response for single-link scenes, warm_multilink for
/// the multi-user scene.
void warm_scene(Scene& scene);

/// One optimize cycle through the public entry point.
press::control::OptimizationOutcome run_cycle(Scene& scene,
                                              press::util::Rng& rng,
                                              std::size_t threads);

/// The objective on System::observe_true() for the applied configuration.
double true_score(Scene& scene);

/// True when the cycle's winner landed: a finite score, a successful
/// final apply, and the array holding best_config.
bool winner_landed(Scene& scene,
                   const press::control::OptimizationOutcome& outcome);

/// Seeds of a run: scene j and cycle i.
std::uint64_t scene_seed(std::uint64_t seed, std::size_t j);
std::uint64_t cycle_seed(std::uint64_t seed, std::size_t i);

}  // namespace perfbench
