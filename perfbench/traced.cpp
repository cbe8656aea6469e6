#include "traced.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "control/message.hpp"
#include "control/service.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace control = press::control;
namespace obs = press::obs;

namespace {

double process_cpu_s() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

std::uint64_t cache_misses(Scene& scene) {
    return scene.kind == Kind::kMultiuser
               ? scene.system().multilink_cache_stats().rebuilds
               : scene.system().cache_stats().misses;
}

/// Wall time of the program's own spans inside one traced cycle.
struct CycleSpans {
    double cycle = 0.0;      ///< perfbench.cycle (the benchmark's span)
    double optimize = 0.0;   ///< core.system.optimize_fast / _multilink
    double search = 0.0;     ///< core.system.search_batched
    double remeasure = 0.0;  ///< core.system.remeasure
};

CycleSpans read_spans() {
    CycleSpans t;
    for (const obs::SpanRecord& s : obs::flush_spans()) {
        const double w = static_cast<double>(s.wall_ns) * 1e-9;
        if (s.name == "perfbench.cycle") t.cycle += w;
        else if (s.name == "core.system.optimize_fast" ||
                 s.name == "core.system.optimize_multilink")
            t.optimize += w;
        else if (s.name == "core.system.search_batched") t.search += w;
        else if (s.name == "core.system.remeasure") t.remeasure += w;
    }
    return t;
}

/// Index (1-based) of the first evaluation that reached the final best,
/// as a share of the search's evaluations.
double evals_to_best_share(const control::SearchResult& s) {
    for (std::size_t k = 0; k < s.trajectory.size(); ++k)
        if (s.trajectory[k] >= s.best_score)
            return static_cast<double>(k + 1) /
                   static_cast<double>(s.evaluations);
    return 1.0;
}

/// The service layer in front of this workload's own cycle: an
/// in-process control::Service whose engine runs the workload's optimize
/// cycle, fed a burst of kBurst encoded OptimizeRequests, so request k
/// waits behind k cycles.
void add_service_probe(const Args& args, Kind kind, Scene& scene,
                       Result& r) {
    constexpr std::uint32_t kBurst = 5;
    std::size_t next = 0;
    control::ServiceEngine engine;
    engine.optimize = [&](const control::OptimizeRequest&, double) {
        press::util::Rng rng(cycle_seed(args.seed, next++));
        const control::OptimizationOutcome o =
            run_cycle(scene, rng, spec_of(kind).threads);
        control::EngineResult e;
        e.ok = winner_landed(scene, o);
        e.best_score = o.search.best_score_remeasured;
        e.evaluations = static_cast<std::uint32_t>(o.search.evaluations);
        e.sim_elapsed_s = o.elapsed_s;
        e.compute_s = o.search.compute_s;
        return e;
    };
    engine.validate = [](const control::OptimizeRequest&) { return true; };
    engine.validate_mutate = [](const control::MutateRequest&) {
        return false;
    };
    engine.mutate = [](const control::MutateRequest&) { return false; };
    engine.checkpoint = []() {};
    engine.revert = []() { return true; };
    engine.scene_revision = []() { return std::uint64_t{0}; };
    control::ServiceOptions options;
    // The cycles' simulated time exceeds pressd's 1 s watchdog and the
    // burst outlives the default deadline on the large scenes; the probe
    // measures the service, not those policies.
    options.watchdog_cycle_s = 1e9;
    options.default_deadline_s = 1e9;
    control::Service service(std::move(engine), options);
    const control::Service::SessionId sid = service.connect();
    service.submit(sid, control::encode(control::Message{control::Hello{}}, 0));
    (void)service.take_outgoing(sid);

    std::vector<double> wait_ms, compute_ms, overhead_ms;
    const auto t0 = Clock::now();
    for (std::uint32_t seq = 1; seq <= kBurst; ++seq)
        service.submit(sid, control::encode(
                                control::Message{control::OptimizeRequest{}},
                                seq));
    r.attempted += kBurst;
    for (std::uint32_t k = 0; k < kBurst; ++k) {
        (void)service.run_cycle();
        const auto frames = service.take_outgoing(sid);
        const double latency_ms = seconds_since(t0) * 1e3;
        const control::OptimizeReply* reply = nullptr;
        control::Decoded decoded;
        if (frames.size() == 1) {
            decoded = control::decode(frames.front());
            reply = std::get_if<control::OptimizeReply>(&decoded.message);
        }
        if (reply == nullptr || reply->status != 0) {
            ++r.failed;
            r.fail_check("in-process service request failed");
            continue;
        }
        const double qw = reply->queue_wait_us * 1e-3;
        const double cp = reply->compute_us * 1e-3;
        wait_ms.push_back(qw);
        compute_ms.push_back(cp);
        overhead_ms.push_back(latency_ms - qw - cp);
    }
    const Tail wait_tail = tail_of(wait_ms);
    r.add("control.service.queue_wait_ms_p50", median(wait_ms), "ms",
          format("in-process Service, burst of %u requests", kBurst));
    r.add("control.service.queue_wait_ms_tail", wait_tail.value, "ms",
          format("p%.1f of n=%zu", wait_tail.percentile, wait_tail.samples));
    r.add("control.service.compute_ms_p50", median(compute_ms), "ms");
    r.add("control.service.overhead_ms_p50", median(overhead_ms), "ms",
          "latency - queue wait - compute (remeasure, apply, service)");
}

}  // namespace

InProcessCycles add_inprocess_layers(const Args& args, Kind kind,
                                     double seconds, Result& r) {
    const KindSpec& spec = spec_of(kind);
    const std::size_t threads = spec.threads;
    obs::set_enabled(false);
    obs::set_span_capacity(1u << 15);

    // Set-up split into its two halves, median over the scenes.
    std::vector<double> build_ms, warm_ms;
    std::vector<std::unique_ptr<Scene>> scenes;
    for (std::size_t j = 0; j < kScenes; ++j) {
        auto t0 = Clock::now();
        scenes.push_back(build_scene(kind, scene_seed(args.seed, j)));
        build_ms.push_back(seconds_since(t0) * 1e3);
        t0 = Clock::now();
        warm_scene(*scenes.back());
        warm_ms.push_back(seconds_since(t0) * 1e3);
    }
    {   // One untimed warm-up cycle, as in the untraced run.
        press::util::Rng rng(cycle_seed(args.seed, 0));
        (void)run_cycle(*scenes[0], rng, threads);
    }

    std::uint64_t misses = 0;
    for (auto& s : scenes) misses -= cache_misses(*s);
    std::vector<double> untraced, traced, search_share, remeasure_share,
        other_share, optimize_share, busy_share, busy_per_task_us, evals,
        to_best, cpu_ms;
    double max_gap_s = 0.0;
    const auto start = Clock::now();
    auto last_end = start;
    for (std::size_t i = 0; i < 3 || seconds_since(start) < seconds; ++i) {
        Scene& scene = *scenes[i % kScenes];
        {
            press::util::Rng rng(cycle_seed(args.seed, i));
            const auto t0 = Clock::now();
            if (i > 0)
                max_gap_s = std::max(
                    max_gap_s,
                    std::chrono::duration<double>(t0 - last_end).count());
            const control::OptimizationOutcome plain =
                run_cycle(scene, rng, threads);
            untraced.push_back(seconds_since(t0));
            ++r.attempted;
            if (!winner_landed(scene, plain)) {
                ++r.failed;
                r.fail_check(format("cycle %zu: winner did not land", i));
            }
        }
        obs::set_enabled(true);
        (void)obs::flush_spans();
        press::util::Rng rng(cycle_seed(args.seed, i));
        const double cpu0 = process_cpu_s();
        control::OptimizationOutcome outcome;
        double wall = 0.0;
        {
            obs::TraceSpan span("perfbench.cycle");
            const auto t0 = Clock::now();
            outcome = run_cycle(scene, rng, threads);
            wall = seconds_since(t0);
        }
        cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
        obs::set_enabled(false);
        traced.push_back(wall);
        ++r.attempted;
        if (!winner_landed(scene, outcome)) {
            ++r.failed;
            r.fail_check(format("traced cycle %zu: winner did not land", i));
        }

        // Shares of the cycle's wall time as the caller sees it (the
        // benchmark's own span around the call).
        const CycleSpans t = read_spans();
        if (t.cycle > 0.0) {
            search_share.push_back(t.search / t.cycle);
            remeasure_share.push_back(t.remeasure / t.cycle);
            other_share.push_back(1.0 - (t.search + t.remeasure) / t.cycle);
            optimize_share.push_back(t.optimize / t.cycle);
        }
        double busy = 0.0, tasks = 0.0;
        auto& registry = obs::MetricsRegistry::global();
        for (std::size_t w = 0; w < threads; ++w) {
            const std::string prefix =
                "control.batch.worker." + std::to_string(w);
            busy += registry.gauge(prefix + ".busy_s").value();
            tasks += registry.gauge(prefix + ".tasks").value();
        }
        const double pool_wall = t.search + t.remeasure;
        if (pool_wall > 0.0)
            busy_share.push_back(busy /
                                 (static_cast<double>(threads) * pool_wall));
        if (tasks > 0.0) busy_per_task_us.push_back(busy * 1e6 / tasks);
        evals.push_back(static_cast<double>(outcome.search.evaluations));
        to_best.push_back(evals_to_best_share(outcome.search));
        last_end = Clock::now();
    }
    for (auto& s : scenes) misses += cache_misses(*s);

    Scene& scene = *scenes[0];
    const EvalCosts c = probe_eval_costs(scene, args.seed);
    r.add("core.build_ms", median(build_ms), "ms",
          format("median of %zu builds", build_ms.size()));
    r.add("core.warm_ms", median(warm_ms), "ms");
    r.add("core.basis_mib", c.basis_mib, "MiB");
    r.add("core.gather_us", c.gather_us, "us");
    r.add("core.gather_gbps", c.gather_gbps, "GB/s",
          "bytes from the basis layout");
    r.add("core.base_us", c.base_us, "us");
    r.add("core.delta_us", c.delta_us, "us");
    r.add("core.cache_misses", static_cast<double>(misses), "count",
          format("over %zu cycles; should be 0", 2 * traced.size()));
    r.add("util.draws_per_eval", c.draws_per_eval, "count");
    r.add("util.draw_ns", c.draw_ns, "ns");
    r.add("util.rng_seed_us", c.rng_seed_us, "us");
    r.add("util.sound_us", c.sound_us, "us");
    r.add("util.reduce_us", c.reduce_us, "us");
    r.add("control.batch.dispatch_us",
          probe_dispatch_us(spec.batch_size, threads,
                            scene.system()
                                .medium()
                                .array(scene.array_id())
                                .size()),
          "us", format("%zu-candidate batch, %zu threads", spec.batch_size,
                       threads));
    r.add("control.batch.spawn_us", probe_spawn_us(threads), "us");
    r.add("control.batch.busy_share", median(busy_share), "share",
          "worker busy / (threads x search+remeasure wall)");
    r.add("control.search.self_us_per_eval",
          probe_search_self_us(scene, threads, args.seed), "us");
    r.add("control.search.evals", median(evals), "count");
    r.add("control.search.evals_to_best_share", median(to_best), "share");
    r.add("core.cycle.search_share", median(search_share), "share");
    r.add("core.cycle.remeasure_share", median(remeasure_share), "share");
    r.add("core.cycle.other_share", median(other_share), "share");
    r.add("control.service.cycle_us", probe_service_cycle_us(), "us",
          "stub engine");
    r.add("control.message.codec_us",
          probe_codec_us(static_cast<std::uint32_t>(median(evals))), "us");
    const double overhead =
        (median(traced) / median(untraced) - 1.0) * 100.0;
    r.add("obs.tracing_overhead_pct", overhead, "%",
          format("traced vs untraced p50 over %zu paired cycles",
                 traced.size()));

    // Attribution: the layers one evaluation walks through, against what
    // the workers measured per task. Greedy scenes score coordinate
    // candidates (base + one row); majority vote gathers every probe.
    const double core_us =
        kind == Kind::kMassive ? c.gather_us : c.delta_us;
    const double layer_sum = core_us + c.sound_us + c.reduce_us +
                             c.rng_seed_us;
    const double busy_task = median(busy_per_task_us);
    r.add("attribution.unattributed_share",
          busy_task > 0.0 ? 1.0 - layer_sum / busy_task : 0.0, "share",
          format("layer sum %.2f us vs worker busy %.2f us per task",
                 layer_sum, busy_task));
    r.info.push_back(format(
        "attribution per eval: core %.2f + sound %.2f + reduce %.3f + "
        "rng seed %.2f = %.2f us; worker busy per task %.2f us",
        core_us, c.sound_us, c.reduce_us, c.rng_seed_us, layer_sum,
        busy_task));
    r.info.push_back(format(
        "attribution per cycle: search %.3f + remeasure %.4f + other %.4f "
        "of the cycle's wall time (the optimize span covers %.4f)",
        median(search_share), median(remeasure_share), median(other_share),
        median(optimize_share)));
    return {median(cpu_ms), max_gap_s * 1e3};
}

Result run_traced(const Args& args, Kind kind) {
    Result r;
    const auto start = Clock::now();
    const InProcessCycles cycles =
        add_inprocess_layers(args, kind, 0.6 * args.seconds, r);
    {
        // The service probe runs on a fresh build of scene 0.
        auto scene = build_scene(kind, scene_seed(args.seed, 0));
        warm_scene(*scene);
        add_service_probe(args, kind, *scene, r);
    }
    r.add("pressd.cpu_ms_per_request", cycles.cpu_ms_per_cycle, "ms",
          "this process's CPU per optimize call");
    r.add("loadgen.late_ms_max", cycles.max_gap_ms, "ms",
          "closed loop: largest gap between two cycles");
    r.info.push_back(format("traced run took %.1f s", seconds_since(start)));
    return r;
}

}  // namespace perfbench
