// Substrate sensitivity: do the paper's conclusions depend on the channel
// model? The main benches use a deterministic image-method room; this
// ablation reruns the headline link-enhancement metrics on a
// Saleh-Valenzuela statistical substrate (Poisson cluster arrivals,
// doubly exponential decay, Rayleigh amplitudes) with the same blocked
// direct path and the same 3-element SP4T array. The qualitative results
// — tens-of-dB swings at null subcarriers, movable nulls, a substantial
// fraction of configuration pairs changing the worst subcarrier by >=10 dB
// — must survive the substitution.
#include <iostream>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "util/stats.hpp"

namespace {

using namespace press;

struct SubstrateStats {
    double max_pair_diff_db = 0.0;
    double frac_pairs_10db = 0.0;
    double max_null_move = 0.0;
    double min_snr_low = 0.0;
    double min_snr_high = 0.0;
};

template <typename MakeScenario>
SubstrateStats measure(MakeScenario make, int seeds) {
    SubstrateStats stats;
    std::vector<double> mins;
    double frac_acc = 0.0;
    for (int s = 0; s < seeds; ++s) {
        core::LinkScenario scenario = make(100 + s);
        util::Rng rng(7000 + s);
        const core::ConfigSweep sweep =
            core::sweep_configurations(scenario, 6, rng);
        stats.max_pair_diff_db = std::max(
            stats.max_pair_diff_db, core::find_extreme_pair(sweep).max_diff_db);
        const auto moves = core::null_movements(sweep);
        if (!moves.empty())
            stats.max_null_move =
                std::max(stats.max_null_move, util::max_value(moves));
        std::size_t with10 = 0;
        std::size_t total = 0;
        const std::size_t n = sweep.mean_snr_db.size();
        for (std::size_t a = 0; a < n; ++a) {
            mins.push_back(util::min_value(sweep.mean_snr_db[a]));
            for (std::size_t b = a + 1; b < n; ++b) {
                ++total;
                for (std::size_t k = 0; k < sweep.num_subcarriers; ++k) {
                    if (std::abs(sweep.mean_snr_db[a][k] -
                                 sweep.mean_snr_db[b][k]) >= 10.0) {
                        ++with10;
                        break;
                    }
                }
            }
        }
        frac_acc += static_cast<double>(with10) /
                    static_cast<double>(total) / seeds;
    }
    stats.frac_pairs_10db = frac_acc;
    stats.min_snr_low = util::percentile(mins, 5.0);
    stats.min_snr_high = util::percentile(mins, 95.0);
    return stats;
}

void run_ablation() {
    std::ostream& os = std::cout;
    os << "=== Substrate ablation: image-method room vs. Saleh-Valenzuela "
          "statistical channel ===\n\n";
    const int seeds = 4;
    const SubstrateStats traced = measure(
        [](std::uint64_t s) { return core::make_link_scenario(s, false); },
        seeds);
    const SubstrateStats sv = measure(
        [](std::uint64_t s) { return core::make_sv_link_scenario(s); },
        seeds);

    std::vector<std::vector<std::string>> rows;
    auto row = [&](const char* name, const SubstrateStats& st) {
        rows.push_back({name, core::fmt(st.max_pair_diff_db, 1),
                        core::fmt(100.0 * st.frac_pairs_10db, 1) + "%",
                        core::fmt(st.max_null_move, 0),
                        core::fmt(st.min_snr_low, 1) + ".." +
                            core::fmt(st.min_snr_high, 1)});
    };
    row("image-method room", traced);
    row("Saleh-Valenzuela", sv);
    core::print_table(os,
                      {"substrate", "max pair diff (dB)",
                       "pairs with >=10 dB change", "max null move (sc)",
                       "min-SNR p5..p95 (dB)"},
                      rows);
    os << "\nShape: both substrates show tens-of-dB swings, movable nulls "
          "and a sizeable fraction of >=10 dB configuration changes; the "
          "paper's conclusions do not hinge on the ray tracer.\n\n";
}

}  // namespace

int main() {
    run_ablation();
    return 0;
}
