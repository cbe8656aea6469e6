#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common.hpp"
#include "control/batch.hpp"
#include "control/message.hpp"
#include "control/plane.hpp"
#include "control/service.hpp"
#include "core/link_cache.hpp"
#include "phy/chanest.hpp"
#include "util/kernels.hpp"

namespace perfbench {

namespace control = press::control;
namespace core = press::core;
namespace kernels = press::util::kernels;
using press::util::Rng;

namespace {

volatile double g_sink = 0.0;
constexpr double kMiB = 1024.0 * 1024.0;

/// Median per-call microseconds of `f(k)` over nine blocks, each sized to
/// about 3 ms from one calibration call.
template <class F>
double per_call_us(F&& f) {
    f(0);
    const auto c0 = Clock::now();
    f(1);
    const double one = std::max(seconds_since(c0), 1e-8);
    const std::size_t calls =
        std::clamp<std::size_t>(static_cast<std::size_t>(0.003 / one), 1,
                                1000000);
    std::vector<double> per;
    std::size_t k = 2;
    for (int b = 0; b < 9; ++b) {
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < calls; ++c) f(k++);
        per.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
    }
    return median(per);
}

std::vector<press::surface::Config> random_configs(
    const press::surface::ConfigSpace& space, std::uint64_t seed,
    std::size_t count) {
    Rng rng(seed);
    std::vector<press::surface::Config> configs;
    for (std::size_t i = 0; i < count; ++i) {
        press::surface::Config c(space.num_elements());
        for (std::size_t e = 0; e < c.size(); ++e)
            c[e] = static_cast<int>(
                rng.uniform_int(0, space.radices()[e] - 1));
        configs.push_back(std::move(c));
    }
    return configs;
}

/// The sounding optimize_* performs per scored link: `repeats` noise
/// draws per tone added to the noise-free response, then LTF combining.
struct Sounder {
    std::size_t repeats = 4;
    std::size_t n = 0;  ///< full tone count of the response
    std::vector<double> raw_re, raw_im, mean_re, mean_im, noise;

    Sounder(std::size_t repeats_, std::size_t n_) : repeats(repeats_), n(n_) {
        raw_re.assign(repeats * n, 0.0);
        raw_im.assign(repeats * n, 0.0);
        mean_re.assign(n, 0.0);
        mean_im.assign(n, 0.0);
        noise.assign(n, 0.0);
    }

    void sound(const double* hre, const double* him, double var, Rng& rng) {
        for (std::size_t r = 0; r < repeats; ++r)
            for (std::size_t k = 0; k < n; ++k) {
                const std::complex<double> w = rng.complex_gaussian(var);
                raw_re[r * n + k] = hre[k] + w.real();
                raw_im[r * n + k] = him[k] + w.imag();
            }
        kernels::ltf_mean_var(kernels::active(), raw_re.data(),
                              raw_im.data(), repeats, n, mean_re.data(),
                              mean_im.data(), noise.data());
    }

    void sound_masked(const double* hre, const double* him, double var,
                      const std::vector<std::size_t>& idx, Rng& rng) {
        for (std::size_t r = 0; r < repeats; ++r)
            for (const std::size_t k : idx) {
                const std::complex<double> w = rng.complex_gaussian(var);
                raw_re[r * n + k] = hre[k] + w.real();
                raw_im[r * n + k] = him[k] + w.imag();
            }
        kernels::masked_ltf_mean_var(kernels::active(), raw_re.data(),
                                     raw_im.data(), repeats, n, idx.data(),
                                     idx.size(), mean_re.data(),
                                     mean_im.data(), noise.data());
    }

    double reduce(press::control::FusedSpec::Kind kind, std::size_t m) const {
        const kernels::Dispatch d = kernels::active();
        return kind == control::FusedSpec::Kind::kMinSnr
                   ? kernels::snr_db_min(d, mean_re.data(), mean_im.data(),
                                         noise.data(), m,
                                         press::phy::kSnrCapDb,
                                         press::phy::kSnrFloorDb)
                   : kernels::snr_db_mean(d, mean_re.data(), mean_im.data(),
                                          noise.data(), m,
                                          press::phy::kSnrCapDb,
                                          press::phy::kSnrFloorDb);
    }
};

/// Bytes one candidate accumulation streams: the static response plus
/// one selected row per element, each 2 x `width` doubles, and the
/// 2 x `width` written result.
double gather_bytes(std::size_t elements, std::size_t width) {
    return static_cast<double>((elements + 2) * 2 * width * sizeof(double));
}

void probe_single_link(Scene& scene, std::uint64_t seed, EvalCosts& c) {
    press::core::System& sys = scene.system();
    const press::sdr::Medium& medium = sys.medium();
    const std::size_t lid = scene.link_id();
    const std::size_t aid = scene.array_id();
    const press::sdr::Link& link = sys.link(lid);
    const press::surface::ConfigSpace space =
        medium.array(aid).config_space();
    const std::size_t elements = space.num_elements();

    core::LinkCache cache;
    cache.warm(medium, lid, link);
    const core::LinkCache::BasisLayout layout = cache.basis_layout(lid, aid);
    c.basis_mib = static_cast<double>(layout.bytes) / kMiB;
    const auto configs = random_configs(space, derive_seed(seed, 7), 16);

    // Masked fused objectives read only the RU mask's tile spans.
    const press::control::FusedSpec fused = scene.objective->fused_spec();
    std::vector<kernels::IndexRange> spans;
    std::vector<std::size_t> idx;
    std::size_t covered = layout.row_stride;
    if (fused.mask != nullptr) {
        covered = 0;
        for (const press::phy::RuRange& r :
             fused.mask->tile_spans(core::LinkCache::kTileSubcarriers)) {
            spans.push_back({r.first, r.last - r.first});
            covered += r.last - r.first;
        }
        idx = fused.mask->active_indices();
    }
    const bool masked = !spans.empty();

    kernels::SplitVec h, base, out;
    c.gather_us = per_call_us([&](std::size_t k) {
        if (masked)
            cache.response_ranges_into(medium, lid, link, aid,
                                       configs[k % configs.size()],
                                       spans.data(), spans.size(), h);
        else
            cache.response_into(medium, lid, link, aid,
                                configs[k % configs.size()], h);
        g_sink = h.re[masked ? spans[0].offset : 0];
    });
    c.gather_gbps = gather_bytes(elements, covered) / (c.gather_us * 1e3);
    c.base_us = per_call_us([&](std::size_t k) {
        if (masked)
            cache.response_base_ranges_into(
                medium, lid, link, aid, configs[k % configs.size()],
                k % elements, spans.data(), spans.size(), base);
        else
            cache.response_base_into(medium, lid, link, aid,
                                     configs[k % configs.size()],
                                     k % elements, base);
    });
    if (masked)
        cache.response_base_ranges_into(medium, lid, link, aid, configs[0], 0,
                                        spans.data(), spans.size(), base);
    else
        cache.response_base_into(medium, lid, link, aid, configs[0], 0,
                                 base);
    out.resize(base.size());
    const int radix = space.radices()[0];
    c.delta_us = per_call_us([&](std::size_t k) {
        const int state = static_cast<int>(k % static_cast<std::size_t>(radix));
        if (masked)
            cache.element_row_delta_ranges(lid, aid, 0, state, spans.data(),
                                           spans.size(), base, out);
        else
            cache.element_row_delta(lid, aid, 0, state, base, out);
    });

    const double var = medium.estimate_noise_variance(link);
    const std::size_t repeats = sys.sounding_repeats();
    const std::size_t n = h.size();
    const std::size_t scored = masked ? idx.size() : n;
    c.draws_per_eval = static_cast<double>(repeats * scored);
    Sounder s(repeats, n);
    Rng rng(derive_seed(seed, 8));
    c.sound_us = per_call_us([&](std::size_t) {
        if (masked)
            s.sound_masked(h.re.data(), h.im.data(), var, idx, rng);
        else
            s.sound(h.re.data(), h.im.data(), var, rng);
    });
    c.reduce_us = per_call_us(
        [&](std::size_t) { g_sink = s.reduce(fused.kind, scored); });
    c.draw_ns = 1e3 * per_call_us([&](std::size_t) {
        g_sink = rng.complex_gaussian(var).real();
    });
    c.rng_seed_us = per_call_us([&](std::size_t k) {
        Rng candidate(control::BatchEvaluator::candidate_seed(seed, k));
        g_sink = candidate.complex_gaussian(var).real();
    });
}

void probe_multi_link(Scene& scene, std::uint64_t seed, EvalCosts& c) {
    press::core::System& sys = scene.system();
    const press::sdr::Medium& medium = sys.medium();
    const std::size_t aid = scene.array_id();
    sys.warm_multilink();
    const core::MultiLinkCache& cache = sys.multilink_cache();
    const press::surface::ConfigSpace space =
        medium.array(aid).config_space();
    const std::size_t elements = space.num_elements();
    const std::size_t groups = cache.num_groups();
    const core::MultiLinkCache::MemoryStats mem = cache.memory_stats();
    c.basis_mib =
        static_cast<double>(mem.shared_table_bytes + mem.shared_static_bytes) /
        kMiB;
    const auto configs = random_configs(space, derive_seed(seed, 7), 16);
    const kernels::Dispatch d = kernels::active();

    std::vector<kernels::SplitVec> wide(groups), base(groups), cand(groups);
    double bytes = 0.0;
    for (std::size_t g = 0; g < groups; ++g)
        bytes += gather_bytes(elements, cache.group_width(g));
    c.gather_us = per_call_us([&](std::size_t k) {
        for (std::size_t g = 0; g < groups; ++g)
            cache.group_response_into(medium, g, aid,
                                      configs[k % configs.size()], wide[g]);
        g_sink = wide[0].re[0];
    });
    c.gather_gbps = bytes / (c.gather_us * 1e3);
    c.base_us = per_call_us([&](std::size_t k) {
        for (std::size_t g = 0; g < groups; ++g)
            cache.group_response_base_into(medium, g, aid,
                                           configs[k % configs.size()],
                                           k % elements, base[g]);
    });
    for (std::size_t g = 0; g < groups; ++g) {
        cache.group_response_base_into(medium, g, aid, configs[0], 0,
                                       base[g]);
        cand[g].resize(base[g].size());
    }
    const int radix = space.radices()[0];
    // optimize_multilink's coordinate candidate: copy each group's base,
    // add the swept element's wide row.
    c.delta_us = per_call_us([&](std::size_t k) {
        const int state = static_cast<int>(k % static_cast<std::size_t>(radix));
        for (std::size_t g = 0; g < groups; ++g) {
            kernels::copy(d, base[g].re.data(), base[g].im.data(),
                          cand[g].re.data(), cand[g].im.data(),
                          base[g].size());
            cache.accumulate_group_element_row(g, aid, 0, state, cand[g]);
        }
    });

    const control::MultiLinkSpec* ml = scene.objective->multilink_spec();
    const std::size_t links = cache.num_links();
    const std::size_t n = cache.num_sc();
    const std::size_t repeats = sys.sounding_repeats();
    c.draws_per_eval = static_cast<double>(repeats * n * ml->terms.size());
    std::vector<double> var(links);
    for (std::size_t l = 0; l < links; ++l)
        var[l] = medium.estimate_noise_variance(sys.link(l));
    Sounder s(repeats, n);
    Rng rng(derive_seed(seed, 8));
    c.sound_us = per_call_us([&](std::size_t) {
        for (const control::LinkTerm& t : ml->terms) {
            const core::MultiLinkCache::LinkView v = cache.view(t.link);
            s.sound(wide[v.group].re.data() + v.offset,
                    wide[v.group].im.data() + v.offset, var[t.link], rng);
        }
    });
    std::vector<double> utility(ml->terms.size());
    c.reduce_us = per_call_us([&](std::size_t) {
        for (std::size_t t = 0; t < ml->terms.size(); ++t)
            utility[t] = control::MultiLinkObjective::term_utility(
                ml->terms[t], s.reduce(ml->terms[t].reduce, n));
        g_sink = control::MultiLinkObjective::combine(*ml, utility.data());
    });
    c.draw_ns = 1e3 * per_call_us([&](std::size_t) {
        g_sink = rng.complex_gaussian(var[0]).real();
    });
    c.rng_seed_us = per_call_us([&](std::size_t k) {
        Rng candidate(control::BatchEvaluator::candidate_seed(seed, k));
        g_sink = candidate.complex_gaussian(var[0]).real();
    });
}

/// Evaluations optimize_* allows the scene's budget.
std::size_t max_evals(Scene& scene) {
    press::core::System& sys = scene.system();
    const control::ControlPlaneModel plane = control::ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.array_id = 0;
    probe.config.assign(sys.medium().array(scene.array_id()).size(), 0);
    const double trial_s = plane.config_trial_time_s(
        probe, sys.num_links(), sys.medium().ofdm().num_used());
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(scene.budget_s / trial_s));
}

}  // namespace

EvalCosts probe_eval_costs(Scene& scene, std::uint64_t seed) {
    EvalCosts c;
    if (scene.kind == Kind::kMultiuser)
        probe_multi_link(scene, seed, c);
    else
        probe_single_link(scene, seed, c);
    return c;
}

double probe_dispatch_us(std::size_t batch, std::size_t threads,
                         std::size_t elements) {
    control::BatchEvaluator pool(
        [](const press::surface::Config&, Rng&, control::EvalScratch&) {
            return 0.0;
        },
        1, threads);
    const std::vector<press::surface::Config> candidates(
        batch, press::surface::Config(elements, 0));
    return per_call_us(
        [&](std::size_t) { g_sink = pool.evaluate(candidates)[0]; });
}

double probe_spawn_us(std::size_t threads) {
    return per_call_us([&](std::size_t) {
        control::BatchEvaluator pool(
            [](const press::surface::Config&, Rng&, control::EvalScratch&) {
                return 0.0;
            },
            1, threads);
        g_sink = static_cast<double>(pool.num_threads());
    });
}

double probe_search_self_us(Scene& scene, std::size_t threads,
                            std::uint64_t seed) {
    const press::surface::ConfigSpace space =
        scene.system().medium().array(scene.array_id()).config_space();
    // A linear score with seeded per-element weights: instant, and with
    // enough structure that greedy climbs and majority vote converges.
    Rng wrng(derive_seed(seed, 9));
    std::vector<double> w(space.num_elements());
    for (double& x : w) x = wrng.uniform(-1.0, 1.0);
    const auto score = [&w](const press::surface::Config& c) {
        double s = 0.0;
        for (std::size_t e = 0; e < c.size(); ++e) s += w[e] * c[e];
        return s;
    };
    const control::BatchEvalFn eval =
        [&score](const std::vector<press::surface::Config>& batch) {
            std::vector<double> out;
            out.reserve(batch.size());
            for (const auto& c : batch) out.push_back(score(c));
            return out;
        };
    const control::CoordinateEvalFn coordinate =
        [&score, &w](const press::surface::Config& base, std::size_t e,
                     const std::vector<int>& states) {
            const double rest = score(base) - w[e] * base[e];
            std::vector<double> out;
            out.reserve(states.size());
            for (const int s : states) out.push_back(rest + w[e] * s);
            return out;
        };
    const std::size_t budget = max_evals(scene);
    std::vector<double> per;
    for (int rep = 0; rep < 7; ++rep) {
        Rng rng(derive_seed(seed, 10 + rep));
        const auto t0 = Clock::now();
        const control::SearchResult result = scene.searcher->search_batched(
            space, eval, coordinate, budget, rng, nullptr, threads * 2);
        per.push_back(seconds_since(t0) * 1e6 /
                      static_cast<double>(std::max<std::size_t>(
                          1, result.evaluations)));
    }
    return median(per);
}

double probe_service_cycle_us() {
    control::ServiceEngine engine;
    engine.optimize = [](const control::OptimizeRequest&, double) {
        control::EngineResult r;
        r.ok = true;
        r.best_score = 1.0;
        r.evaluations = 1;
        r.sim_elapsed_s = 1e-4;
        r.compute_s = 1e-6;
        return r;
    };
    engine.validate = [](const control::OptimizeRequest&) { return true; };
    engine.validate_mutate = [](const control::MutateRequest&) {
        return true;
    };
    engine.mutate = [](const control::MutateRequest&) { return true; };
    engine.checkpoint = []() {};
    engine.revert = []() { return true; };
    engine.scene_revision = []() { return std::uint64_t{0}; };
    control::Service service(std::move(engine));
    const control::Service::SessionId sid = service.connect();
    service.submit(sid, control::encode(control::Message{control::Hello{}}, 0));
    (void)service.take_outgoing(sid);
    // Seqs repeat only after 128 requests, beyond the 64-seq dedupe window.
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint32_t s = 1; s <= 128; ++s)
        frames.push_back(control::encode(
            control::Message{control::OptimizeRequest{}}, s));
    return per_call_us([&](std::size_t k) {
        service.submit(sid, frames[k % frames.size()]);
        while (service.run_cycle()) {
        }
        g_sink = static_cast<double>(service.take_outgoing(sid).size());
    });
}

double probe_codec_us(std::uint32_t evaluations) {
    const control::Message request{control::OptimizeRequest{}};
    control::OptimizeReply reply;
    reply.evaluations = evaluations;
    reply.best_score_centi = 2500;
    reply.compute_us = 1000;
    const control::Message reply_msg{reply};
    return per_call_us([&](std::size_t k) {
        const auto seq = static_cast<std::uint32_t>(k);
        g_sink = static_cast<double>(
            control::decode(control::encode(request, seq)).seq +
            control::decode(control::encode(reply_msg, seq)).seq);
    });
}

}  // namespace perfbench
