// Reproduces Figure 8: "The distribution of MIMO channel condition number
// across subcarriers and experimental repetitions. Each curve on the CDF is
// a separate PRESS phase setting, with the phase settings demonstrating the
// best (lowest) and worst (highest) condition numbers appearing thicker and
// in color." Headline: PRESS changes the 2x2 condition number by ~1.5 dB.
#include <iostream>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "phy/mimo.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

constexpr std::uint64_t kSeed = 500;
constexpr int kMeasurements = 50;  // the paper averages 50 per config

void reproduce_figure() {
    using namespace press;
    std::ostream& os = std::cout;
    os << "=== Figure 8: CDF of 2x2 MIMO condition number per PRESS "
          "configuration ===\n\n";

    core::MimoScenario scenario = core::make_mimo_scenario(kSeed);
    util::Rng rng(9);
    const core::MimoSweep sweep =
        core::sweep_mimo(scenario, kMeasurements, rng);

    // Print the CDFs of the best and worst configurations (the highlighted
    // curves of the figure) plus a handful of background configurations.
    core::print_cdf(os, "fig8-best[" +
                            sweep.config_labels[sweep.best_config] + "]",
                    sweep.condition_db[sweep.best_config], 25);
    core::print_cdf(os, "fig8-worst[" +
                            sweep.config_labels[sweep.worst_config] + "]",
                    sweep.condition_db[sweep.worst_config], 25);
    for (std::size_t c = 0; c < sweep.condition_db.size(); c += 16)
        core::print_cdf(os, "fig8-bg" + std::to_string(c),
                        sweep.condition_db[c], 25);

    std::vector<std::vector<std::string>> rows;
    auto add_row = [&](const char* tag, std::size_t c) {
        const auto& cond = sweep.condition_db[c];
        rows.push_back({tag, sweep.config_labels[c],
                        core::fmt(util::percentile(cond, 10.0), 2),
                        core::fmt(util::median(cond), 2),
                        core::fmt(util::percentile(cond, 90.0), 2)});
    };
    add_row("best", sweep.best_config);
    add_row("worst", sweep.worst_config);
    os << "\n";
    core::print_table(os,
                      {"setting", "config", "p10 (dB)", "median (dB)",
                       "p90 (dB)"},
                      rows);

    // Capacity impact: condition number matters because it bounds spatial
    // multiplexing capacity (the paper: "critically important to the
    // channel capacity").
    scenario.medium.array(scenario.array_id)
        .apply(scenario.medium.array(scenario.array_id)
                   .config_space()
                   .at(sweep.best_config));
    util::Rng cap_rng(11);
    const double snr_linear = util::db_to_linear(20.0);
    const phy::MimoChannelEstimate best_est = scenario.medium.sound_mimo(
        scenario.tx_antennas, scenario.rx_antennas, scenario.profile,
        kMeasurements, cap_rng);
    scenario.medium.array(scenario.array_id)
        .apply(scenario.medium.array(scenario.array_id)
                   .config_space()
                   .at(sweep.worst_config));
    const phy::MimoChannelEstimate worst_est = scenario.medium.sound_mimo(
        scenario.tx_antennas, scenario.rx_antennas, scenario.profile,
        kMeasurements, cap_rng);

    os << "\nPaper: best-vs-worst configuration shifts the condition-number "
          "distribution by ~1.5 dB.\n";
    os << "Ours:  median gap " << core::fmt(sweep.median_gap_db, 2)
       << " dB; mean 2x2 capacity at 20 dB SNR: best config "
       << core::fmt(phy::mean_capacity_bps_hz(best_est, snr_linear), 2)
       << " b/s/Hz vs worst config "
       << core::fmt(phy::mean_capacity_bps_hz(worst_est, snr_linear), 2)
       << " b/s/Hz.\n\n";
}

}  // namespace

int main() {
    reproduce_figure();
    // Telemetry accumulated by the figure reproduction above (trace
    // counts, cache activity, search convergence); no-op when
    // PRESS_TELEMETRY is off.
    const press::obs::RunManifest manifest =
        press::obs::RunManifest::capture("fig8_mimo_condition", kSeed);
    const press::obs::RunExportPaths paths =
        press::obs::write_run_exports("fig8_mimo_condition", manifest);
    if (paths.telemetry) std::cout << "wrote " << *paths.telemetry << "\n";
    if (paths.trace) std::cout << "wrote " << *paths.trace << "\n";
    return 0;
}
