// The agility-vs-optimization trade-off (paper Section 2): serving several
// time-multiplexed links, is it better to reconfigure the array for each
// link's slot (agile, but each slot pays switching overhead) or to hold
// one jointly optimized configuration (no overhead, but a compromise
// channel)? The answer flips with the slot duration — exactly the
// packet-level-timescale tension the paper describes ("PRESS will very
// likely reap additional performance benefits from switching strategies on
// packet-level timescales of one to two milliseconds").
#include <iostream>

#include "control/scheduler.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "phy/rate.hpp"
#include "util/stats.hpp"

namespace {

using namespace press;

// A study room serving three clients from one AP.
struct MultiLinkWorld {
    core::LinkScenario scenario;
    std::vector<std::size_t> link_ids;
};

MultiLinkWorld make_world(std::uint64_t seed) {
    MultiLinkWorld world{core::make_link_scenario(seed, false), {}};
    core::System& system = world.scenario.system;
    // IoT-class power so links sit on the MCS ladder rather than pinned at
    // the top rate.
    system.link(world.scenario.link_id).profile.tx_power_dbm = -26.0;
    world.link_ids.push_back(world.scenario.link_id);
    // Two more clients at different spots behind the blocker.
    for (int i = 0; i < 2; ++i) {
        sdr::Link link = system.link(world.scenario.link_id);
        link.rx.position.y += 0.9 * (i + 1);
        link.rx.position.x += 0.4 * i;
        world.link_ids.push_back(system.add_link(link));
    }
    return world;
}

void run_ablation() {
    std::ostream& os = std::cout;
    os << "=== Agility vs. joint optimization for 3 time-multiplexed links "
          "===\n\n";

    std::vector<std::vector<std::string>> rows;
    for (double slot_ms : {0.5, 1.0, 2.0, 10.0}) {
        for (const auto strategy :
             {control::MultiLinkStrategy::kStaticOff,
              control::MultiLinkStrategy::kJoint,
              control::MultiLinkStrategy::kPerLink}) {
            double eff = 0.0;
            double raw = 0.0;
            double airtime = 0.0;
            const int seeds = 3;
            for (int s = 0; s < seeds; ++s) {
                MultiLinkWorld world = make_world(100 + s);
                util::Rng rng(8000 + s);
                core::System& system = world.scenario.system;
                const auto space = system.medium()
                                       .array(world.scenario.array_id)
                                       .config_space();
                const control::LinkEval eval =
                    [&](std::size_t link, const surface::Config& c) {
                        system.apply(world.scenario.array_id, c);
                        return phy::expected_throughput_mbps(
                            system.measured_snr_db(world.link_ids[link],
                                                   rng));
                    };
                const control::MultiLinkScheduler scheduler(
                    control::ControlPlaneModel::fast(), slot_ms * 1e-3);
                const control::MultiLinkOutcome outcome = scheduler.run(
                    strategy, space, eval, world.link_ids.size(),
                    control::GreedyCoordinateDescent(), 48, rng);
                eff += outcome.mean_effective_score / seeds;
                raw += outcome.mean_raw_score / seeds;
                airtime += outcome.airtime_fraction / seeds;
            }
            rows.push_back({core::fmt(slot_ms, 1),
                            control::to_string(strategy),
                            core::fmt(raw, 1), core::fmt(100.0 * airtime, 1),
                            core::fmt(eff, 1)});
        }
    }
    core::print_table(os,
                      {"slot (ms)", "strategy", "raw rate (Mb/s)",
                       "airtime (%)", "effective rate (Mb/s)"},
                      rows);
    os << "\nShape: per-link reconfiguration wins once slots are long "
          "enough to amortize the switch; at sub-millisecond slots the "
          "joint configuration wins despite its compromise channel — the "
          "paper's agility/optimization spectrum.\n\n";
}

}  // namespace

int main() {
    run_ablation();
    return 0;
}
