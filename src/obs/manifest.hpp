// Observability: the run manifest stamped into every telemetry export.
//
// A metric without provenance is a trap: a cache hit-rate from a dirty
// tree at 2 threads is not comparable to one from CI at 8. RunManifest
// records what produced a telemetry document — the build (git describe,
// build type, compiler, flags, sanitizer, all captured at CMake configure
// time) and the run (resolved worker thread count, top-level seed,
// scenario id). Exports embed it under the "manifest" key of
// `press.telemetry/v2` (docs/TELEMETRY.md).
//
// The manifest is deliberately free of wall-clock timestamps, hostnames
// and other per-invocation noise: two runs of the same binary with the
// same seed, scenario and PRESS_THREADS produce byte-identical manifests,
// so diffing two exports shows only what actually changed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace press::obs {

/// PRESS_THREADS from the environment, clamped to [1, 64]; 0 when unset
/// or unparsable. The single source of the env policy —
/// control::BatchEvaluator::resolve_threads delegates here.
std::size_t env_threads();

struct RunManifest {
    std::string schema = "press.telemetry/v2";
    std::string git_describe;   ///< `git describe --always --dirty` at configure
    std::string build_type;     ///< CMAKE_BUILD_TYPE
    std::string compiler;       ///< compiler id + version
    std::string cxx_flags;      ///< global CXX flags
    std::string sanitize;       ///< PRESS_SANITIZE flavor (OFF/asan/tsan)
    std::size_t press_threads = 1;  ///< resolved worker thread count
    std::uint64_t seed = 0;         ///< the run's top-level seed
    std::string scenario;           ///< scenario / bench id

    bool operator==(const RunManifest&) const = default;

    /// Captures the build fields and resolves press_threads with the same
    /// policy as the BatchEvaluator (PRESS_THREADS env clamped to [1, 64],
    /// else hardware concurrency).
    static RunManifest capture(std::string scenario, std::uint64_t seed);
};

}  // namespace press::obs
