// Observability: diffing a run's telemetry against a committed baseline.
//
// PR 2 made the evaluation pipeline bit-reproducible: with the same
// seed, scenario and PRESS_THREADS, every *counter* the library emits
// (evals, traces, cache hits, retries) is identical from run to run.
// That determinism is an asset CI should spend: a change that silently
// doubles evaluations or halves the cache hit-rate shifts a counter long
// before anyone reads a timing chart. make_baseline() distills a
// telemetry document to its comparable core (manifest identity +
// counters + gauges); diff_telemetry() compares a later run against it,
// failing on counter drift beyond a fixed 2% tolerance and only
// *warning* on gauge drift — gauges carry wall-clock noise by design.
//
// Comparability is checked, not assumed: a baseline recorded at
// different press_threads/seed/scenario fails outright (the comparison
// is meaningless — scenario is compared as a comma-separated scene-token
// set, so a run that adds a scene only warns while one that drops a
// baseline scene fails), while a different compiler/build_type/sanitize
// downgrades counter failures to warnings — floating-point differences
// across toolchains can legitimately steer a search down another
// trajectory, and the gate must not punish a toolchain bump as a
// regression. tools/bench_diff.cpp is the CI-facing CLI
// (docs/TELEMETRY.md).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace press::obs {

/// Counter-drift tolerance, percent.
inline constexpr double kDiffTolerancePct = 2.0;

/// Distills a `press.telemetry/v2` document into the committed
/// `press.bench_baseline/v1` form: manifest identity fields plus every
/// counter and gauge value.
Json make_baseline(const Json& telemetry);

struct DiffResult {
    /// False when manifest identity (press_threads/seed/scenario)
    /// mismatched and the counter comparison was skipped as meaningless.
    bool comparable = true;
    std::vector<std::string> failures;  ///< CI-gating violations
    std::vector<std::string> warnings;  ///< advisory drift
    bool ok() const { return failures.empty(); }
};

/// Compares `current` (a full telemetry document) against `baseline` (a
/// make_baseline() document). Counter drift beyond kDiffTolerancePct is
/// a failure (a warning when the toolchain differs, see file comment);
/// gauge drift is always a warning.
DiffResult diff_telemetry(const Json& baseline, const Json& current);

}  // namespace press::obs
