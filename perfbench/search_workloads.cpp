// The three in-process search workloads (massive_vote, wideband_masked,
// multiuser_maxmin): closed loops of whole optimize cycles with one
// caller, telemetry off.
//
// A run builds kScenes scenes from the seed (and rebuilds one after every
// few cycles, for setup_s), checks that 1 and 2 evaluator threads give
// the same cycle (the repository's bit-identity contract; this cycle is
// also the untimed warm-up), then times cycles for --seconds. Cycle i runs on
// scene i mod kScenes with its own rng seed, and a cycle's outcome does
// not depend on the cycles before it, so score_db — the median over the
// first kScoreCycles cycles, scored outside the timed region — is a pure
// function of the seed.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "scenes.hpp"
#include "traced.hpp"

namespace perfbench {

namespace control = press::control;

namespace {

/// Cycles scored for score_db: four per scene, since one scene's greedy
/// can land in optima several dB apart from cycle to cycle.
constexpr std::size_t kScoreCycles = 4 * kScenes;
/// Cycles between two extra timed scene builds.
constexpr std::size_t kBuildEvery = 8;

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Cycle 0 of the seed on two fresh builds of scene 0, with 1 and with 2
/// evaluator threads. Leaves `two_threads` warmed by its cycle.
void check_thread_determinism(Kind kind, std::uint64_t seed,
                              Scene& two_threads, Result& r) {
    auto one_thread = build_scene(kind, scene_seed(seed, 0));
    warm_scene(*one_thread);
    press::util::Rng rng1(cycle_seed(seed, 0));
    press::util::Rng rng2(cycle_seed(seed, 0));
    const auto a = run_cycle(*one_thread, rng1, 1);
    const auto b = run_cycle(two_threads, rng2, 2);
    r.attempted += 2;
    const double score_a = true_score(*one_thread);
    const double score_b = true_score(two_threads);
    const bool same = a.search.evaluations == b.search.evaluations &&
                      a.search.remeasure_evals == b.search.remeasure_evals &&
                      a.search.best_config == b.search.best_config &&
                      same_bits(a.search.best_score, b.search.best_score) &&
                      same_bits(a.search.best_score_remeasured,
                                b.search.best_score_remeasured) &&
                      same_bits(score_a, score_b);
    r.info.push_back(format(
        "determinism: 1 vs 2 threads %s (evals %zu/%zu, score_db "
        "%.6f/%.6f)",
        same ? "identical" : "DIFFER", a.search.evaluations,
        b.search.evaluations, score_a, score_b));
    if (!same) {
        r.failed += 2;
        r.fail_check("1 and 2 evaluator threads gave different cycles");
    }
    if (!winner_landed(*one_thread, a) || !winner_landed(two_threads, b))
        r.fail_check("the determinism cycles' winners did not land");
}

}  // namespace

bool is_search_workload(const std::string& name) {
    const std::optional<Kind> kind = kind_of(name);
    return kind.has_value() && *kind != Kind::kStudy;
}

Result run_search_workload(const Args& args) {
    const Kind kind = *kind_of(args.workload);
    const KindSpec& spec = spec_of(kind);
    press::obs::set_enabled(false);
    if (args.trace) return run_traced(args, kind);

    Result r;
    if (args.selftest) {
        auto scene = build_scene(kind, scene_seed(args.seed, 0));
        warm_scene(*scene);
        check_thread_determinism(kind, args.seed, *scene, r);
        r.add("score_db", true_score(*scene), "dB");
        return r;
    }

    // Set-up: every scene built and warmed once before the cycles, then
    // one more timed build after every kBuildEvery-th cycle, so setup_s
    // samples the host across the whole run rather than one moment.
    std::vector<double> setup_s;
    const auto timed_build = [&](std::size_t j) {
        const auto t0 = Clock::now();
        auto scene = build_scene(kind, scene_seed(args.seed, j));
        warm_scene(*scene);
        setup_s.push_back(seconds_since(t0));
        return scene;
    };
    std::vector<std::unique_ptr<Scene>> scenes;
    for (std::size_t j = 0; j < kScenes; ++j) scenes.push_back(timed_build(j));

    check_thread_determinism(kind, args.seed, *scenes[0], r);

    std::vector<double> walls, per_eval, scores, gaps, evals;
    double timed_sum_s = 0.0;
    const auto start = Clock::now();
    Clock::time_point last_end{};
    for (std::size_t i = 0;; ++i) {
        const bool timed = seconds_since(start) < args.seconds;
        if (!timed && i >= kScoreCycles) break;
        Scene& scene = *scenes[i % kScenes];
        press::util::Rng rng(cycle_seed(args.seed, i));
        const auto t0 = Clock::now();
        const control::OptimizationOutcome outcome =
            run_cycle(scene, rng, spec.threads);
        const auto t1 = Clock::now();
        const double wall = std::chrono::duration<double>(t1 - t0).count();
        ++r.attempted;
        if (!winner_landed(scene, outcome)) {
            ++r.failed;
            r.fail_check(format("cycle %zu: winner did not land", i));
        }
        const std::size_t n =
            outcome.search.evaluations + outcome.search.remeasure_evals;
        if (timed) {
            walls.push_back(wall);
            timed_sum_s += wall;
            per_eval.push_back(wall * 1e6 / static_cast<double>(n));
            evals.push_back(static_cast<double>(n));
            if (i > kScoreCycles && i % kBuildEvery != 1)
                gaps.push_back(
                    std::chrono::duration<double>(t0 - last_end).count());
        }
        if (i < kScoreCycles) scores.push_back(true_score(scene));
        if (timed && i % kBuildEvery == 0)
            (void)timed_build((i / kBuildEvery) % kScenes);
        last_end = Clock::now();
    }

    const Tail tail = tail_of(walls);
    for (double& w : walls) w *= 1e3;
    r.add("latency_ms_p50", median(walls), "ms",
          format("n=%zu cycles", walls.size()));
    r.add("latency_ms_tail", tail.value * 1e3, "ms",
          format("p%.1f of n=%zu", tail.percentile, tail.samples));
    r.add("us_per_eval", median(per_eval), "us",
          format("%.0f evals per cycle", median(evals)));
    r.add("score_db", median(scores), "dB",
          format("median of the first %zu cycles", scores.size()));
    r.add("setup_s", median(setup_s), "s",
          format("median of %zu builds", setup_s.size()));
    r.add("peak_rss_mib", self_peak_rss_mib(), "MiB");
    r.add("max_rps_slo", static_cast<double>(walls.size()) / timed_sum_s,
          "req/s", "closed loop: cycles completed per second");
    r.info.push_back(
        format("loadgen.late_ms_max=%.3f (closed loop: largest gap between "
               "cycles)",
               gaps.empty() ? 0.0
                            : *std::max_element(gaps.begin(), gaps.end()) *
                                  1e3));
    return r;
}

}  // namespace perfbench
