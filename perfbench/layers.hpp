// Per-layer probes of the traced run: each times one layer's public
// functions on the workload's own inputs, outside any optimize cycle.
#pragma once

#include <cstddef>
#include <cstdint>

#include "scenes.hpp"

namespace perfbench {

/// `core` and `util` costs of one evaluation of the workload's objective.
struct EvalCosts {
    double basis_mib = 0.0;   ///< basis table bytes of the scored links
    double gather_us = 0.0;   ///< full candidate response (ranged/grouped)
    double gather_gbps = 0.0; ///< layout bytes one gather moves / gather_us
    double base_us = 0.0;     ///< coordinate-sweep base response
    double delta_us = 0.0;    ///< one swept candidate on top of the base
    double draws_per_eval = 0.0;  ///< repeats x scored tones x scored links
    double draw_ns = 0.0;     ///< one Rng::complex_gaussian draw
    double rng_seed_us = 0.0; ///< a candidate's Rng plus its first draw
    double sound_us = 0.0;    ///< every draw of one eval plus LTF combining
    double reduce_us = 0.0;   ///< SNR reduction (plus the combinator)
};
EvalCosts probe_eval_costs(Scene& scene, std::uint64_t seed);

/// BatchEvaluator::evaluate round trip of `batch` candidates whose score
/// is a no-op, on `threads` workers.
double probe_dispatch_us(std::size_t batch, std::size_t threads,
                         std::size_t elements);

/// Constructing and destroying a BatchEvaluator of `threads` workers.
double probe_spawn_us(std::size_t threads);

/// Searcher::search_batched over the scene's space and budget with an
/// instant score: the searcher's own cost per evaluation.
double probe_search_self_us(Scene& scene, std::size_t threads,
                            std::uint64_t seed);

/// Service::submit + run_cycle + take_outgoing of one OptimizeRequest
/// against a stub ServiceEngine that answers instantly.
double probe_service_cycle_us();

/// control::encode + decode of one OptimizeRequest and one OptimizeReply.
double probe_codec_us(std::uint32_t evaluations);

}  // namespace perfbench
