// Adapts a core::System into the callback engine control::Service runs
// on. The control layer cannot depend on core (press_core links
// press_control), so the service is written against an injected
// ServiceEngine bundle — the same decoupling Controller uses for
// ApplyFn/MeasureFn — and this header is where the two layers meet:
// pressd, press_loadgen, the service tests and the service bench all
// build their engine here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "control/plane.hpp"
#include "control/service.hpp"
#include "core/system.hpp"
#include "util/rng.hpp"

namespace press::core {

/// Knobs for the adapted engine.
struct ServeConfig {
    /// Timing model every optimize cycle is priced with.
    control::ControlPlaneModel plane = control::ControlPlaneModel::fast();
    /// Evaluation threads per request. The service executes one request
    /// at a time, so the default keeps per-request cost (thread spawn)
    /// minimal; raise it for scenes where a single search dominates.
    std::size_t threads = 1;
    /// Seed of the engine's private rng (measurement noise draws).
    std::uint64_t seed = 0x5E221CEull;
};

/// Builds a ServiceEngine over `system`. The engine holds a reference:
/// `system` must outlive any Service built on the returned bundle.
///
/// Semantics mapped onto System:
///   optimize        -> System::optimize_fast for every preset: the
///                      single-link ones (kMinSnr/kMeanSnr) score one
///                      link's segment, the composite ones (selector >=
///                      kMaxMinFair) whole transmitter groups of the
///                      one channel cache; either way it leaves the
///                      best configuration applied
///   mutate          -> one element state poked through System::apply
///                      (fault models respected)
///   checkpoint      -> snapshots every array's current configuration
///   revert          -> re-applies the snapshot (the watchdog's
///                      last-known-good restore)
///   scene_revision  -> environment revision + array structure stamps +
///                      a mutation counter, so the service can assert
///                      the frozen-scene guarantee across each cycle
control::ServiceEngine make_service_engine(System& system,
                                           const ServeConfig& config = {});

}  // namespace press::core
