#include "scenes.hpp"

#include <cmath>

#include "common.hpp"
#include "control/plane.hpp"

namespace perfbench {

namespace core = press::core;
namespace control = press::control;

namespace {

// Search budgets follow the sizing measurements the workloads were chosen
// on: 8 majority-vote rounds of 64 probes + 1 consensus (520 trials) on
// the massive panel, 256 greedy trials on the wideband panel, 128 on the
// 32-link scene. The study scene's budget is pressd's default 20 ms.
const KindSpec kSpecs[] = {
    {"massive_vote", 2, 520, 64},
    {"wideband_masked", 2, 256, 3},
    {"multiuser_maxmin", 2, 128, 3},
    {"pressd_open_loop", 1, 0, 3},
};

constexpr std::size_t kMassiveElements = 1024;
constexpr double kStudyBudgetS = 0.02;

double trial_budget_s(core::System& system, std::size_t array_id,
                      std::size_t trials) {
    const control::ControlPlaneModel plane = control::ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.array_id = static_cast<std::uint16_t>(array_id);
    probe.config.assign(system.medium().array(array_id).size(), 0);
    const double trial_s = plane.config_trial_time_s(
        probe, system.num_links(), system.medium().ofdm().num_used());
    // Half a trial of slack so the floor in optimize_* lands on `trials`.
    return (static_cast<double>(trials) + 0.5) * trial_s;
}

}  // namespace

const KindSpec& spec_of(Kind kind) { return kSpecs[static_cast<int>(kind)]; }

std::optional<Kind> kind_of(const std::string& workload) {
    for (int k = 0; k < 4; ++k)
        if (workload == kSpecs[k].workload) return static_cast<Kind>(k);
    return std::nullopt;
}

core::System& Scene::system() {
    if (multi_sc) return multi_sc->system;
    if (wide_sc) return wide_sc->system;
    return link_sc->system;
}

std::size_t Scene::array_id() const {
    if (multi_sc) return multi_sc->array_id;
    if (wide_sc) return wide_sc->array_id;
    return link_sc->array_id;
}

std::size_t Scene::link_id() const {
    if (multi_sc) return 0;
    if (wide_sc) return wide_sc->link_id;
    return link_sc->link_id;
}

std::unique_ptr<Scene> build_scene(Kind kind, std::uint64_t seed) {
    auto scene = std::make_unique<Scene>();
    scene->kind = kind;
    switch (kind) {
        case Kind::kMassive:
            scene->link_sc =
                core::make_massive_scenario(kMassiveElements, seed);
            scene->objective = std::make_unique<control::MinSnrObjective>(
                scene->link_sc->link_id);
            scene->searcher = std::make_unique<control::MajorityVoteSearcher>();
            break;
        case Kind::kWideband:
            scene->wide_sc = core::make_wideband_scenario(seed);
            scene->objective = std::make_unique<control::MaskedSnrObjective>(
                scene->wide_sc->mask, control::FusedSpec::Kind::kMinSnr,
                scene->wide_sc->link_id);
            scene->searcher =
                std::make_unique<control::GreedyCoordinateDescent>();
            break;
        case Kind::kMultiuser:
            scene->multi_sc = core::make_multi_link_scenario(seed);
            scene->objective =
                control::make_max_min_objective(scene->multi_sc->num_links);
            scene->searcher =
                std::make_unique<control::GreedyCoordinateDescent>();
            break;
        case Kind::kStudy:
            // pressd's scene: the blocked study-room link.
            scene->link_sc =
                core::make_link_scenario(seed, /*line_of_sight=*/false);
            scene->objective = std::make_unique<control::MeanSnrObjective>(
                scene->link_sc->link_id);
            scene->searcher =
                std::make_unique<control::GreedyCoordinateDescent>();
            break;
    }
    scene->budget_s =
        kind == Kind::kStudy
            ? kStudyBudgetS
            : trial_budget_s(scene->system(), scene->array_id(),
                             spec_of(kind).trials);
    return scene;
}

void warm_scene(Scene& scene) {
    if (scene.kind == Kind::kMultiuser)
        scene.system().warm_multilink();
    else
        (void)scene.system().channel_response(scene.link_id());
}

control::OptimizationOutcome run_cycle(Scene& scene, press::util::Rng& rng,
                                       std::size_t threads) {
    const control::ControlPlaneModel plane = control::ControlPlaneModel::fast();
    core::System& system = scene.system();
    if (scene.kind == Kind::kMultiuser)
        return system.optimize_multilink(scene.array_id(), *scene.objective,
                                         *scene.searcher, plane,
                                         scene.budget_s, rng, threads);
    return system.optimize_fast(scene.array_id(), *scene.objective,
                                *scene.searcher, plane, scene.budget_s, rng,
                                threads);
}

double true_score(Scene& scene) {
    return scene.objective->score(scene.system().observe_true());
}

bool winner_landed(Scene& scene, const control::OptimizationOutcome& outcome) {
    return std::isfinite(outcome.search.best_score_remeasured) &&
           outcome.search.evaluations > 0 && outcome.final_apply_ok &&
           scene.system().medium().array(scene.array_id()).current_config() ==
               outcome.search.best_config;
}

std::uint64_t scene_seed(std::uint64_t seed, std::size_t j) {
    return derive_seed(seed, 100 + j);
}

std::uint64_t cycle_seed(std::uint64_t seed, std::size_t i) {
    return derive_seed(seed, 100000 + i);
}

}  // namespace perfbench
