// Degradation curve: objective score vs fraction of faulty elements, with
// health monitoring off (the controller trusts every element) and on
// (probe sweep -> freeze suspects -> search the healthy dimensions only).
//
// The paper's deployment story is hundreds of cheap wall elements, where
// stuck switches and dead loads are the steady state. This bench measures
// how gracefully the control loop degrades: without monitoring the
// searcher burns its coherence-time budget toggling switches that do not
// respond — and trusts configurations that flaky hardware never actually
// assumed; with monitoring those dimensions are frozen and the same budget
// concentrates on the elements that still work.
#include <iostream>
#include <vector>

#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "util/stats.hpp"

namespace {

constexpr std::uint64_t kPlacementSeed = 300;
constexpr int kSeeds = 12;           // placements averaged per point
/// Tight on purpose: roughly one greedy pass over the full wall, so
/// trials wasted on unresponsive elements are trials the healthy ones
/// never get.
constexpr double kBudgetS = 0.06;
/// 8 elements: 0, 1, 2, 3, 4 faulty.
constexpr double kFractions[] = {0.0, 0.125, 0.25, 0.375, 0.5};

press::core::StudyParams wall_params() {
    press::core::StudyParams params;
    params.num_elements = 8;  // a wall worth degrading gracefully
    return params;
}

/// One (placement, fault draw) cell of the curve.
struct CellResult {
    double score_off_db = 0.0;  ///< true min-SNR after naive optimize
    double score_on_db = 0.0;   ///< ... after probe + degraded optimize
    std::size_t flagged = 0;    ///< elements the probe froze
    std::size_t injected = 0;   ///< elements actually faulty
    double probe_s = 0.0;       ///< maintenance-window time spent probing
};

CellResult run_cell(std::uint64_t placement_seed, double fraction) {
    using namespace press;
    const control::MinSnrObjective objective(0);
    const control::GreedyCoordinateDescent searcher;
    const control::ControlPlaneModel plane =
        control::ControlPlaneModel::fast();

    // The fault draw must be identical in both arms, so sample it once
    // from a stream derived from the placement.
    util::Rng fault_rng(placement_seed * 7919 + 17);

    CellResult cell;
    for (int monitored = 0; monitored < 2; ++monitored) {
        // A fresh, identical world per arm: same placement, same faults.
        core::LinkScenario scenario = core::make_link_scenario(
            placement_seed, /*line_of_sight=*/false, wall_params());
        scenario.system.set_sounding_repeats(24);
        const surface::ConfigSpace space =
            scenario.system.medium().array(scenario.array_id).config_space();

        util::Rng draw = fault_rng;  // same draw for both arms
        fault::FaultModel model = fault::FaultModel::sample(
            space, fraction, draw);
        cell.injected = model.num_faulty();
        if (!model.empty())
            scenario.system.inject_faults(scenario.array_id,
                                          std::move(model));

        util::Rng run_rng(placement_seed * 31 + 5);
        if (monitored == 1) {
            // A maintenance probe averages many more soundings than a
            // live trial, so estimator noise on the mean-SNR response
            // sits well below this threshold even for weakly-coupled
            // healthy elements.
            fault::ProbeOptions options;
            options.response_threshold_db = 0.25;
            scenario.system.set_sounding_repeats(96);
            const fault::HealthReport report =
                scenario.system.probe_health(scenario.array_id, plane,
                                             run_rng, options);
            scenario.system.set_sounding_repeats(24);
            cell.flagged = report.num_suspect();
            cell.probe_s = report.elapsed_s;
            (void)scenario.system.optimize_degraded(
                scenario.array_id, objective, searcher, plane, kBudgetS,
                report, run_rng);
        } else {
            (void)scenario.system.optimize(scenario.array_id, objective,
                                           searcher, plane, kBudgetS,
                                           run_rng);
        }
        // Score what is actually on the wall, noise-free: faults mean the
        // controller's belief and the hardware can disagree.
        const double score =
            objective.score(scenario.system.observe_true());
        (monitored == 1 ? cell.score_on_db : cell.score_off_db) = score;
    }
    return cell;
}

void reproduce_figure() {
    using namespace press;
    std::ostream& os = std::cout;
    os << "=== Degradation curve: true min-subcarrier SNR after a "
       << core::fmt(kBudgetS * 1e3, 0)
       << " ms optimization vs fraction of faulty elements ===\n"
       << "    (8-element wall, greedy coordinate descent, fast control "
          "plane, "
       << kSeeds << " placements per point)\n\n";
    os << "fraction  monitor-off  monitor-on   delta  flagged/injected  "
          "probe-ms\n";

    for (double fraction : kFractions) {
        std::vector<double> off, on;
        double flagged = 0.0, injected = 0.0, probe_ms = 0.0;
        for (int s = 0; s < kSeeds; ++s) {
            const CellResult cell = run_cell(
                kPlacementSeed + static_cast<std::uint64_t>(s), fraction);
            off.push_back(cell.score_off_db);
            on.push_back(cell.score_on_db);
            flagged += static_cast<double>(cell.flagged) / kSeeds;
            injected += static_cast<double>(cell.injected) / kSeeds;
            probe_ms += cell.probe_s * 1e3 / kSeeds;
        }
        const double mean_off = util::mean(off);
        const double mean_on = util::mean(on);
        os << "  " << core::fmt(fraction, 2) << "       "
           << core::fmt(mean_off, 2) << "       " << core::fmt(mean_on, 2)
           << "     " << core::fmt(mean_on - mean_off, 2) << "      "
           << core::fmt(flagged, 1) << " / " << core::fmt(injected, 1)
           << "         " << core::fmt(probe_ms, 0) << "\n";
    }
    os << "\nThe probe sweep is priced with the same control-plane model "
          "but charged to a maintenance window, not the coherence-time "
          "search budget.\n\n";
}

}  // namespace

int main() {
    reproduce_figure();
    return 0;
}
