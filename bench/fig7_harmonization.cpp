// Reproduces Figure 7: "Two configurations demonstrating control over
// frequency selectivity" — two PRESS configurations with "clear and
// opposite frequency selectivity; each one favors its own half of the
// band" on an N210 link with two 4-phase elements. The paper manipulated
// the environment until such a channel appeared; find_harmonization_pair
// emulates that curation by advancing the scenario seed.
//
// As an extension, the second part exercises the paper's Figure-2 vision:
// two co-located networks plus their interference channels, optimized with
// the WeightedBandObjective so each network gets its own half of the band
// while the cross-network channels are suppressed there.
#include <iostream>

#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "util/stats.hpp"

namespace {

constexpr std::uint64_t kBaseSeed = 300;
constexpr int kMaxCuration = 100;

void reproduce_figure() {
    using namespace press;
    std::ostream& os = std::cout;
    os << "=== Figure 7: opposite frequency selectivity from two "
          "configurations ===\n\n";

    util::Rng rng(42);
    const core::HarmonizationPair pair = core::find_harmonization_pair(
        kBaseSeed, kMaxCuration, /*min_selectivity_db=*/2.5, rng);
    if (!pair.found) {
        os << "fig7 curation failed to find a frequency-selective channel "
              "(unexpected; see EXPERIMENTS.md)\n";
        return;
    }
    os << "curated scenario seed " << pair.seed << ": config A "
       << pair.label_a << " favors the LOW half by "
       << core::fmt(pair.selectivity_a_db, 1) << " dB, config B "
       << pair.label_b << " favors the HIGH half by "
       << core::fmt(-pair.selectivity_b_db, 1) << " dB\n\n";
    for (std::size_t k = 0; k < pair.snr_a_db.size(); ++k)
        os << "fig7 " << (k + 1) << " " << core::fmt(pair.snr_a_db[k], 2)
           << " " << core::fmt(pair.snr_b_db[k], 2) << "\n";
    os << "fig7-profileA " << core::sparkline(pair.snr_a_db) << "\n";
    os << "fig7-profileB " << core::sparkline(pair.snr_b_db) << "\n";

    // ---- Extension: the Figure-2 two-network harmonization vision ----
    os << "\n=== Extension: two-network harmonization with interference "
          "suppression (paper Figure 2) ===\n\n";
    core::HarmonizationScenario hs =
        core::make_harmonization_scenario(pair.seed);
    const std::size_t n_sc = hs.system.medium().ofdm().num_used();
    const auto objective = control::make_harmonization_objective(
        n_sc, /*interference_links=*/true);

    util::Rng opt_rng(7);
    const control::Observation before = hs.system.observe(opt_rng);
    const double score_before = objective->score(before);
    control::GreedyCoordinateDescent searcher;
    const control::OptimizationOutcome outcome = hs.system.optimize(
        hs.array_id, *objective, searcher, control::ControlPlaneModel::fast(),
        /*time_budget_s=*/0.08, opt_rng);
    const control::Observation after = hs.system.observe(opt_rng);

    auto band_mean = [&](const control::Observation& obs, std::size_t link,
                         bool low) {
        const auto& snr = obs.link_snr_db[link];
        const std::size_t half = snr.size() / 2;
        std::vector<double> band(low ? snr.begin() : snr.begin() + half,
                                 low ? snr.begin() + half : snr.end());
        return util::mean(band);
    };
    std::vector<std::vector<std::string>> rows;
    const char* names[] = {"comm A (low band)", "comm B (high band)",
                           "interference A->clientB (high band)",
                           "interference B->clientA (low band)"};
    const bool lows[] = {true, false, false, true};
    for (std::size_t l = 0; l < 4; ++l)
        rows.push_back({names[l],
                        core::fmt(band_mean(before, l, lows[l]), 1),
                        core::fmt(band_mean(after, l, lows[l]), 1)});
    core::print_table(
        os, {"channel (band scored)", "before (dB)", "after (dB)"}, rows);
    os << "harmonization score: " << core::fmt(score_before, 1) << " -> "
       << core::fmt(outcome.search.best_score, 1) << " ("
       << outcome.search.evaluations << " trials, "
       << core::fmt(outcome.elapsed_s * 1e3, 1)
       << " ms simulated control-plane time)\n\n";
}

}  // namespace

int main() {
    reproduce_figure();
    // Telemetry accumulated by the figure reproduction above (trace
    // counts, cache activity, search convergence); no-op when
    // PRESS_TELEMETRY is off.
    const press::obs::RunManifest manifest =
        press::obs::RunManifest::capture("fig7_harmonization", kBaseSeed);
    const press::obs::RunExportPaths paths =
        press::obs::write_run_exports("fig7_harmonization", manifest);
    if (paths.telemetry) std::cout << "wrote " << *paths.telemetry << "\n";
    if (paths.trace) std::cout << "wrote " << *paths.trace << "\n";
    return 0;
}
