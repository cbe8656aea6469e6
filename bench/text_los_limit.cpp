// Reproduces the Section-3 in-text claim: "In these [line-of-sight]
// scenarios, the effect of the PRESS element configurations on the
// per-subcarrier SNR is limited to less than 2 dB ... the line-of-sight
// signal dominates over the reflection of much lower strength from the
// passive PRESS elements. This suggests that a passive PRESS array is best
// suited to improving non-line-of-sight links."
#include <iostream>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "util/stats.hpp"

namespace {

constexpr int kSeeds = 6;

void reproduce_claim() {
    using namespace press;
    std::ostream& os = std::cout;
    os << "=== Text claim: passive PRESS barely moves line-of-sight links "
          "===\n\n";

    // Close-range LoS link (direct path strongly dominant, as in the
    // paper's LoS bench setup) vs. the blocked NLoS setup at the paper's
    // 3 m geometry.
    core::StudyParams los_params;
    los_params.link_distance_m = 1.5;

    std::vector<double> los_swings;
    std::vector<double> nlos_swings;
    std::vector<std::vector<std::string>> rows;
    for (int s = 0; s < kSeeds; ++s) {
        core::LinkScenario los =
            core::make_link_scenario(200 + s, /*line_of_sight=*/true,
                                     los_params);
        core::LinkScenario nlos =
            core::make_link_scenario(100 + s, /*line_of_sight=*/false);
        const double los_swing = core::max_true_swing_db(los);
        const double nlos_swing = core::max_true_swing_db(nlos);
        los_swings.push_back(los_swing);
        nlos_swings.push_back(nlos_swing);
        rows.push_back({std::to_string(s), core::fmt(los_swing, 2),
                        core::fmt(nlos_swing, 2)});
    }
    core::print_table(os,
                      {"seed", "LoS max swing (dB)", "NLoS max swing (dB)"},
                      rows);
    os << "\nPaper: LoS effect < 2 dB; NLoS swings up to 26 dB -> passive "
          "arrays suit non-line-of-sight links.\n";
    os << "Ours:  LoS median " << core::fmt(util::median(los_swings), 2)
       << " dB (max " << core::fmt(util::max_value(los_swings), 2)
       << "), NLoS median " << core::fmt(util::median(nlos_swings), 2)
       << " dB (max " << core::fmt(util::max_value(nlos_swings), 2)
       << ") -- NLoS/LoS gap "
       << core::fmt(util::median(nlos_swings) - util::median(los_swings), 1)
       << " dB.\n\n";
}

}  // namespace

int main() {
    reproduce_claim();
    return 0;
}
