// Ablation of the reflection-coefficient granularity (paper Section 4.1:
// "allowing each PRESS element to be tuned to different, finely-spaced
// phases increases the likelihood that the sum of reflected signals will
// constructively interfere ... We conjecture that around eight phase
// values along with the off state may provide sufficient resolution").
//
// For each granularity M we rebuild the scenario's array with M uniformly
// spaced reflection phases plus the off state, search for the
// configuration maximizing the worst-subcarrier SNR, and report the gain
// over the all-off (environment-only) baseline.
#include <iostream>

#include "control/objective.hpp"
#include "control/search.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "util/stats.hpp"

namespace {

using namespace press;

constexpr int kSeeds = 4;

// Replaces the scenario array with uniform-phase elements at the same
// positions.
void rebuild_array(core::LinkScenario& scenario, int phases) {
    core::StudyParams p;
    surface::Array& old_array =
        scenario.system.medium().array(scenario.array_id);
    surface::Array rebuilt;
    for (const surface::Element& e : old_array.elements()) {
        rebuilt.add_element(surface::Element::uniform_phases(
            e.position(), e.antenna(), p.carrier_hz, phases,
            /*include_off=*/true));
    }
    old_array = std::move(rebuilt);
}

double best_min_snr(core::LinkScenario& scenario, std::size_t max_evals,
                    util::Rng& rng) {
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    const control::EvalFn eval = [&](const surface::Config& c) {
        scenario.system.apply(scenario.array_id, c);
        return util::min_value(
            scenario.system.measured_snr_db(scenario.link_id, rng));
    };
    // Exhaust when affordable, greedy-descend otherwise.
    if (space.size() <= max_evals) {
        control::ExhaustiveSearcher searcher;
        return searcher.search(space, eval, max_evals, rng).best_score;
    }
    control::GreedyCoordinateDescent searcher;
    return searcher.search(space, eval, max_evals, rng).best_score;
}

void run_ablation() {
    std::ostream& os = std::cout;
    os << "=== Ablation: reflection-phase granularity per element ===\n\n";

    const int granularities[] = {2, 4, 8, 16, 32};
    std::vector<std::vector<std::string>> rows;
    for (int phases : granularities) {
        double gain_acc = 0.0;
        double best_acc = 0.0;
        for (int s = 0; s < kSeeds; ++s) {
            core::LinkScenario scenario =
                core::make_link_scenario(100 + s, /*line_of_sight=*/false);
            rebuild_array(scenario, phases);
            util::Rng rng(900 + s);

            // Baseline: every element absorptive (the off state is last).
            surface::Array& array =
                scenario.system.medium().array(scenario.array_id);
            surface::Config all_off(array.size(), phases);
            scenario.system.apply(scenario.array_id, all_off);
            const double baseline = util::min_value(
                scenario.system.measured_snr_db(scenario.link_id, rng));

            const double best = best_min_snr(scenario, 2048, rng);
            best_acc += best / kSeeds;
            gain_acc += (best - baseline) / kSeeds;
        }
        rows.push_back({std::to_string(phases),
                        core::fmt(best_acc, 2), core::fmt(gain_acc, 2)});
    }
    core::print_table(os,
                      {"phases/element", "best min-SNR (dB)",
                       "gain over all-off (dB)"},
                      rows);
    os << "\nPaper conjecture: ~8 phase values (plus off) suffice; finer "
          "granularity should show diminishing returns.\n\n";
}

}  // namespace

int main() {
    run_ablation();
    return 0;
}
