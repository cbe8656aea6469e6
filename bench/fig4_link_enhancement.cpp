// Reproduces Figure 4: "measured per-subcarrier SNR for two PRESS
// configurations for each of eight randomly generated PRESS element
// locations (a) through (h)" — the two configurations per placement being
// the pair with the largest single-subcarrier SNR difference — plus the
// section's headline numbers: "the largest change in the mean SNR on any
// given subcarrier is 18.6 dB, and the largest change in the SNR within one
// experimental repetition is 26 dB."
#include <iostream>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"

namespace {

constexpr std::uint64_t kBaseSeed = 100;
constexpr int kPlacements = 8;
constexpr int kTrials = 10;  // the paper iterates the 64 combinations 10x

void reproduce_figure() {
    using namespace press;
    std::ostream& os = std::cout;
    os << "=== Figure 4: per-subcarrier SNR, extreme configuration pair per "
          "placement ===\n\n";

    double overall_mean_swing = 0.0;
    double overall_trial_swing = 0.0;
    std::vector<std::vector<std::string>> rows;
    for (int p = 0; p < kPlacements; ++p) {
        core::LinkScenario scenario =
            core::make_link_scenario(kBaseSeed + p, /*line_of_sight=*/false);
        util::Rng rng(7000 + p);
        core::ConfigSweep sweep =
            core::sweep_configurations(scenario, kTrials, rng);
        const core::ExtremePair pair = core::find_extreme_pair(sweep);

        const char panel = static_cast<char>('a' + p);
        os << "--- placement (" << panel << ")  configs "
           << sweep.config_labels[pair.config_a] << " vs "
           << sweep.config_labels[pair.config_b] << " ---\n";
        const auto& snr_a = sweep.mean_snr_db[pair.config_a];
        const auto& snr_b = sweep.mean_snr_db[pair.config_b];
        for (std::size_t k = 0; k < snr_a.size(); ++k)
            os << "fig4" << panel << " " << k << " "
               << core::fmt(snr_a[k], 2) << " " << core::fmt(snr_b[k], 2)
               << "\n";
        os << "fig4" << panel << "-profileA "
           << core::sparkline(snr_a) << "\n";
        os << "fig4" << panel << "-profileB "
           << core::sparkline(snr_b) << "\n";

        core::LinkScenario swing_scenario =
            core::make_link_scenario(kBaseSeed + p, false);
        util::Rng swing_rng(7100 + p);
        const double trial_swing =
            core::max_single_trial_swing_db(swing_scenario, kTrials,
                                            swing_rng);
        overall_mean_swing =
            std::max(overall_mean_swing, pair.max_diff_db);
        overall_trial_swing = std::max(overall_trial_swing, trial_swing);
        rows.push_back({std::string(1, panel),
                        sweep.config_labels[pair.config_a],
                        sweep.config_labels[pair.config_b],
                        core::fmt(pair.max_diff_db, 1),
                        std::to_string(pair.subcarrier),
                        core::fmt(trial_swing, 1)});
    }
    os << "\n";
    core::print_table(os,
                      {"placement", "config A", "config B",
                       "max mean-SNR diff (dB)", "at subcarrier",
                       "max single-trial swing (dB)"},
                      rows);
    os << "\nPaper: largest mean-SNR change on one subcarrier 18.6 dB; "
          "largest single-repetition change 26 dB.\n";
    os << "Ours:  largest mean-SNR change " << core::fmt(overall_mean_swing, 1)
       << " dB; largest single-trial change "
       << core::fmt(overall_trial_swing, 1) << " dB.\n\n";
}

}  // namespace

int main() {
    reproduce_figure();
    // Telemetry accumulated by the figure reproduction above (trace
    // counts, cache activity, search convergence); no-op when
    // PRESS_TELEMETRY is off.
    const press::obs::RunManifest manifest =
        press::obs::RunManifest::capture("fig4_link_enhancement", kBaseSeed);
    const press::obs::RunExportPaths paths =
        press::obs::write_run_exports("fig4_link_enhancement", manifest);
    if (paths.telemetry) std::cout << "wrote " << *paths.telemetry << "\n";
    if (paths.trace) std::cout << "wrote " << *paths.trace << "\n";
    return 0;
}
