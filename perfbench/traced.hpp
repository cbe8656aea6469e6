// The traced run (--trace 1): per-layer metrics only, never an
// end-to-end number.
#pragma once

#include "common.hpp"
#include "scenes.hpp"

namespace perfbench {

/// Traced run of a search workload: the in-process layer metrics plus the
/// service layer measured in front of the workload's own cycle.
Result run_traced(const Args& args, Kind kind);

/// The in-process half of every traced run. Builds the kind's scenes
/// (core.build_ms / core.warm_ms), alternates untraced and traced cycles
/// for about `seconds` (obs.tracing_overhead_pct, the cycle shares from
/// the program's spans, control.batch.busy_share from its gauges, the
/// search counts, core.cache_misses, CPU time per cycle), then runs the
/// layer probes and the attribution.
struct InProcessCycles {
    double cpu_ms_per_cycle = 0.0;  ///< this process's CPU per traced cycle
    double max_gap_ms = 0.0;        ///< largest gap between two cycles
};
InProcessCycles add_inprocess_layers(const Args& args, Kind kind,
                                     double seconds, Result& r);

}  // namespace perfbench
