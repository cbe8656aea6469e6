#include "core/system.hpp"

#include <algorithm>
#include <chrono>
#include <complex>
#include <limits>

#include "control/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/chanest.hpp"
#include "phy/ru.hpp"
#include "util/contracts.hpp"
#include "util/kernels.hpp"

namespace press::core {

namespace {

/// Post-search accounting for composite objectives: gauges for the scene
/// shape and one histogram of per-link winner scores (noise-free
/// estimator-scale mean SNR, the value the search's soundings converge
/// to). One observation per link per optimize call — cold path, never
/// inside the candidate loop.
void record_multilink_telemetry(std::size_t num_links,
                                std::size_t num_groups,
                                const std::vector<double>& link_scores_db) {
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("control.multilink.links")
        .set(static_cast<double>(num_links));
    registry.gauge("control.multilink.groups")
        .set(static_cast<double>(num_groups));
    static obs::Histogram& scores = registry.histogram(
        "control.multilink.link_score_db",
        {-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0,
         40.0});
    double worst = std::numeric_limits<double>::infinity();
    for (double v : link_scores_db) {
        scores.observe(v);
        worst = std::min(worst, v);
    }
    if (!link_scores_db.empty())
        registry.gauge("control.multilink.worst_link_db").set(worst);
}

}  // namespace

System::System(sdr::Medium medium) : medium_(std::move(medium)) {}

std::size_t System::add_link(sdr::Link link) {
    links_.push_back(std::move(link));
    return links_.size() - 1;
}

const sdr::Link& System::link(std::size_t id) const {
    PRESS_EXPECTS(id < links_.size(), "link id out of range");
    return links_[id];
}

sdr::Link& System::link(std::size_t id) {
    PRESS_EXPECTS(id < links_.size(), "link id out of range");
    return links_[id];
}

void System::set_sounding_repeats(std::size_t repeats) {
    PRESS_EXPECTS(repeats >= 2, "sounding needs at least two repetitions");
    sounding_repeats_ = repeats;
}

void System::warm_multilink() const {
    if (cache_.warm(medium_, links_)) cache_counters_.add_miss();
}

util::CVec System::channel_response(std::size_t link_id) const {
    PRESS_EXPECTS(link_id < links_.size(), "link id out of range");
    if (cache_.warm(medium_, links_))
        cache_counters_.add_miss();
    else
        cache_counters_.add_hits(1);
    // An array id past the last array overrides none: every array reads
    // at its applied configuration.
    const util::kernels::IndexRange full{0, cache_.num_sc()};
    util::kernels::SplitVec h;
    cache_.response_into(medium_, cache_.link_segment(link_id),
                         medium_.num_arrays(), surface::Config{},
                         MultiLinkCache::kNoSkip, &full, 1, h);
    util::CVec out(h.size());
    util::kernels::interleave(h.re.data(), h.im.data(), out.data(),
                              h.size());
    return out;
}

phy::ChannelEstimate System::sound(std::size_t link_id,
                                   util::Rng& rng) const {
    return medium_.sound_with_response(link(link_id),
                                       channel_response(link_id),
                                       sounding_repeats_, rng);
}

std::vector<double> System::measured_snr_db(std::size_t link_id,
                                            util::Rng& rng) const {
    return sound(link_id, rng).snr_db();
}

std::vector<double> System::true_snr_db(std::size_t link_id) const {
    return medium_.true_snr_db(link(link_id), channel_response(link_id));
}

control::Observation System::observe(util::Rng& rng) const {
    PRESS_EXPECTS(!links_.empty(), "no links registered");
    control::Observation obs;
    obs.link_snr_db.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i)
        obs.link_snr_db.push_back(measured_snr_db(i, rng));
    return obs;
}

control::Observation System::observe_true() const {
    PRESS_EXPECTS(!links_.empty(), "no links registered");
    control::Observation obs;
    obs.link_snr_db.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i)
        obs.link_snr_db.push_back(true_snr_db(i));
    return obs;
}

void System::inject_faults(std::size_t array_id, fault::FaultModel model) {
    surface::Array& array = medium_.array(array_id);
    model.install(array);
    fault_models_.insert_or_assign(array_id, std::move(model));
}

const fault::FaultModel* System::faults(std::size_t array_id) const {
    const auto it = fault_models_.find(array_id);
    return it == fault_models_.end() ? nullptr : &it->second;
}

void System::apply(std::size_t array_id, const surface::Config& config) {
    surface::Array& array = medium_.array(array_id);
    const auto it = fault_models_.find(array_id);
    if (it != fault_models_.end())
        it->second.apply(array, config);
    else
        array.apply(config);
}

fault::HealthReport System::probe_health(
    std::size_t array_id, const control::ControlPlaneModel& plane,
    util::Rng& rng, const fault::ProbeOptions& options) {
    PRESS_EXPECTS(!links_.empty(), "register links before probing");
    const surface::Array& array = medium_.array(array_id);
    fault::HealthMonitor monitor(
        [this, array_id](const surface::Config& c) {
            apply(array_id, c);
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    return monitor.probe(array.config_space(), array.current_config(),
                         plane, options);
}

control::OptimizationOutcome System::optimize(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    util::Rng& rng) {
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    const surface::ConfigSpace space =
        medium_.array(array_id).config_space();
    control::Controller controller(
        plane,
        [this, array_id](const surface::Config& c) {
            apply(array_id, c);
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    return controller.optimize(space, objective, searcher, time_budget_s,
                               rng);
}

control::OptimizationOutcome System::optimize_degraded(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    const fault::HealthReport& report, util::Rng& rng) {
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    const surface::Array& array = medium_.array(array_id);
    const surface::ConfigSpace space = array.config_space();
    PRESS_EXPECTS(report.suspect.size() == space.num_elements(),
                  "health report does not match this array");

    const std::size_t flagged = report.num_suspect();
    // Nothing to freeze — or nothing left to search — degrades to the
    // plain path over the full space.
    if (flagged == 0 || flagged == space.num_elements())
        return optimize(array_id, objective, searcher, plane,
                        time_budget_s, rng);

    const surface::FrozenProjection projection =
        report.freeze(space, array.current_config());
    control::Controller controller(
        plane,
        [this, array_id, &projection](const surface::Config& reduced) {
            apply(array_id, projection.lift(reduced));
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    control::OptimizationOutcome outcome =
        controller.optimize(projection.reduced(), objective, searcher,
                            time_budget_s, rng);
    // Report the winning configuration in full arity, as callers expect.
    if (!outcome.search.best_config.empty())
        outcome.search.best_config =
            projection.lift(outcome.search.best_config);
    return outcome;
}

control::OptimizationOutcome System::optimize_fast(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    util::Rng& rng, std::size_t threads) {
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    PRESS_EXPECTS(time_budget_s > 0.0, "budget must be positive");
    obs::TraceSpan span("core.system.optimize_fast");
    const surface::ConfigSpace space =
        medium_.array(array_id).config_space();

    // Price one trial exactly like the serial controller does: batch
    // evaluation speeds up the simulator, not the modeled hardware, so
    // simulated wall-clock is still charged per trial.
    control::SetConfig probe;
    probe.array_id = 0;
    probe.config.assign(space.num_elements(), 0);
    const double trial_cost = plane.config_trial_time_s(
        probe, links_.size(), medium_.ofdm().num_used());
    const std::size_t max_evals = std::max<std::size_t>(
        1, static_cast<std::size_t>(time_budget_s / trial_cost));

    // Warm the basis so the batch workers only ever read.
    {
        obs::TraceSpan warm_span("core.system.warm_cache");
        warm_multilink();
    }

    // Trials are scored against the cache instead of actuating the
    // (simulated) hardware, so flaky switches hold their pre-search state
    // for the whole run; stuck/dead/drift faults distort every candidate
    // exactly as a live apply would.
    const surface::Config baseline =
        medium_.array(array_id).current_config();
    const fault::FaultModel* fm = faults(array_id);

    // The estimator noise variance is a pure function of the link's radio
    // profile — hoist it out of the per-candidate loop.
    const std::size_t num_links = links_.size();
    std::vector<double> link_noise(num_links);
    for (std::size_t i = 0; i < num_links; ++i)
        link_noise[i] = medium_.estimate_noise_variance(links_[i]);

    // Scoring mode: a composite MultiLinkSpec wins, then a single-link
    // fused spec, then the general Observation path.
    const control::MultiLinkSpec* ml = objective.multilink_spec();
    if (ml != nullptr) {
        for (const control::LinkTerm& t : ml->terms) {
            PRESS_EXPECTS(t.link < num_links,
                          "multi-link term names an unregistered link");
            PRESS_EXPECTS(t.reduce != control::FusedSpec::Kind::kNone,
                          "a multi-link term must reduce to a scalar");
        }
    }
    const control::FusedSpec fused = objective.fused_spec();
    const bool fuse = ml == nullptr &&
                      fused.kind != control::FusedSpec::Kind::kNone &&
                      fused.link < num_links;

    // The reads a candidate assembles — the fused link's own segment, or
    // whole transmitter groups in ascending id (the term links' groups,
    // or every group) — and where each scored link lands in them.
    struct Placement {
        std::size_t read = 0;
        std::size_t offset = 0;
    };
    std::vector<MultiLinkCache::Segments> reads;
    std::vector<Placement> placement(num_links);
    if (fuse) {
        reads.push_back(cache_.link_segment(fused.link));
    } else {
        std::vector<bool> needed(cache_.num_groups(), ml == nullptr);
        if (ml != nullptr)
            for (const control::LinkTerm& t : ml->terms)
                needed[cache_.view(t.link).group] = true;
        std::vector<std::size_t> read_of(cache_.num_groups());
        for (std::size_t g = 0; g < needed.size(); ++g) {
            if (!needed[g]) continue;
            read_of[g] = reads.size();
            reads.push_back(cache_.group_segments(g));
        }
        for (std::size_t i = 0; i < num_links; ++i) {
            const MultiLinkCache::LinkView v = cache_.view(i);
            if (needed[v.group]) placement[i] = {read_of[v.group], v.offset};
        }
    }
    // Every assembled segment is a served link response: the hit
    // accounting and the shard task weight both count (candidate x link)
    // tiles.
    std::size_t responses_per_eval = 0;
    for (const MultiLinkCache::Segments& r : reads)
        responses_per_eval += r.count;

    // Masked fused objectives (DESIGN.md §15) score only the RU mask's
    // active tones: the reads are bounded to the subcarrier tiles the
    // mask intersects (tile_spans) and the sounding draws only the active
    // tones. Every other mode reads and sounds the whole band.
    const std::size_t num_sc = cache_.num_sc();
    std::vector<util::kernels::IndexRange> spans{{0, num_sc}};
    const std::size_t* tones = nullptr;  // nullptr: every tone
    std::size_t num_tones = num_sc;
    if (fuse && fused.mask != nullptr) {
        PRESS_EXPECTS(fused.mask->num_used() == medium_.ofdm().num_used(),
                      "RU mask must span the numerology's used tones");
        PRESS_EXPECTS(fused.mask->num_active() > 0,
                      "RU mask must leave at least one active tone");
        spans.clear();
        for (const phy::RuRange& r :
             fused.mask->tile_spans(MultiLinkCache::kTileSubcarriers))
            spans.push_back({r.first, r.last - r.first});
        tones = fused.mask->active_indices().data();
        num_tones = fused.mask->active_indices().size();
    }

    // Sounds link `link_id`, whose noise-free response starts `offset`
    // doubles into `h`: per LTF repetition one noise draw per scored tone
    // in ascending tone order (Medium::sound_with_response's r-outer /
    // k-inner order, restricted to the tone list), packed densely and
    // combined by the LTF kernel into s.mean_re/_im and s.noise_var.
    const std::size_t repeats = sounding_repeats_;
    const auto sound = [&link_noise, repeats, tones, num_tones](
                           std::size_t link_id,
                           const util::kernels::SplitVec& h,
                           std::size_t offset, util::Rng& crng,
                           control::EvalScratch& s) {
        const double var = link_noise[link_id];
        const double* h_re = h.re.data() + offset;
        const double* h_im = h.im.data() + offset;
        s.resize_tracked(s.raw_re, repeats * num_tones);
        s.resize_tracked(s.raw_im, repeats * num_tones);
        s.resize_tracked(s.mean_re, num_tones);
        s.resize_tracked(s.mean_im, num_tones);
        s.resize_tracked(s.noise_var, num_tones);
        for (std::size_t r = 0; r < repeats; ++r) {
            double* rr = s.raw_re.data() + r * num_tones;
            double* ri = s.raw_im.data() + r * num_tones;
            for (std::size_t i = 0; i < num_tones; ++i) {
                const std::size_t k = tones != nullptr ? tones[i] : i;
                const std::complex<double> w = crng.complex_gaussian(var);
                rr[i] = h_re[k] + w.real();
                ri[i] = h_im[k] + w.imag();
            }
        }
        util::kernels::ltf_mean_var(
            util::kernels::active(), s.raw_re.data(), s.raw_im.data(),
            repeats, num_tones, s.mean_re.data(), s.mean_im.data(),
            s.noise_var.data());
    };

    // Reduces the sounding in `s` to one SNR (dB) through the fused
    // kernels (min exactly matches the Observation path; mean differs by
    // blocked-vs-sequential association ulps, see FusedSpec).
    const auto reduce = [num_tones](control::FusedSpec::Kind kind,
                                    const control::EvalScratch& s) {
        const util::kernels::Dispatch d = util::kernels::active();
        return kind == control::FusedSpec::Kind::kMinSnr
                   ? util::kernels::snr_db_min(
                         d, s.mean_re.data(), s.mean_im.data(),
                         s.noise_var.data(), num_tones, phy::kSnrCapDb,
                         phy::kSnrFloorDb)
                   : util::kernels::snr_db_mean(
                         d, s.mean_re.data(), s.mean_im.data(),
                         s.noise_var.data(), num_tones, phy::kSnrCapDb,
                         phy::kSnrFloorDb);
    };

    // Scores a candidate whose reads are assembled in s.group_h, sounding
    // links in term, fused or ascending-id order.
    const auto score = [&](util::Rng& crng,
                           control::EvalScratch& s) -> double {
        if (ml != nullptr) {
            s.resize_tracked(s.term_utility, ml->terms.size());
            for (std::size_t t = 0; t < ml->terms.size(); ++t) {
                const control::LinkTerm& term = ml->terms[t];
                const Placement& p = placement[term.link];
                sound(term.link, s.group_h[p.read], p.offset, crng, s);
                s.term_utility[t] = control::MultiLinkObjective::term_utility(
                    term, reduce(term.reduce, s));
            }
            return control::MultiLinkObjective::combine(
                *ml, s.term_utility.data());
        }
        if (fuse) {
            sound(fused.link, s.group_h[0], 0, crng, s);
            return reduce(fused.kind, s);
        }
        if (s.observation.link_snr_db.size() != num_links)
            s.observation.link_snr_db.resize(num_links);
        for (std::size_t i = 0; i < num_links; ++i) {
            sound(i, s.group_h[placement[i].read], placement[i].offset, crng,
                  s);
            std::vector<double>& snr = s.observation.link_snr_db[i];
            s.resize_tracked(snr, num_sc);
            util::kernels::snr_db_into(
                util::kernels::active(), s.mean_re.data(), s.mean_im.data(),
                s.noise_var.data(), num_sc, phy::kSnrCapDb, phy::kSnrFloorDb,
                snr.data());
        }
        return objective.score(s.observation);
    };

    const auto ensure_reads = [&reads](control::EvalScratch& s) {
        // Outer vector sized once per worker; the SplitVecs inside grow to
        // their read width on first use and are reused afterwards.
        if (s.group_h.size() != reads.size()) s.group_h.resize(reads.size());
    };

    control::BatchEvaluator pool(
        [this, array_id, fm, &baseline, &reads, &spans, &ensure_reads,
         &score](const surface::Config& c, util::Rng& crng,
                 control::EvalScratch& s) {
            const surface::Config* actual = &c;
            if (fm) {
                fm->distorted_into(c, baseline, crng, s.config);
                actual = &s.config;
            }
            ensure_reads(s);
            for (std::size_t r = 0; r < reads.size(); ++r)
                cache_.response_into(medium_, reads[r], array_id, *actual,
                                     MultiLinkCache::kNoSkip, spans.data(),
                                     spans.size(), s.group_h[r]);
            return score(crng, s);
        },
        rng.engine()(), threads);
    // Shard in (candidate x link) tiles: a 32-link candidate carries 32
    // tiles of work, so claims stay small enough to balance the tail.
    // One-segment reads keep the default weight of one.
    if (responses_per_eval > 1) pool.set_task_weight(responses_per_eval);

    // Coordinate sweeps build each read's base (the swept element's row
    // left out) once per sweep, outside the workers; a candidate is then
    // one fused base-plus-row pass per read, the swept row added last.
    std::vector<util::kernels::SplitVec> coord_base(reads.size());
    pool.set_coordinate_score(
        [this, array_id, &reads, &spans, &coord_base, &ensure_reads,
         &score](const control::CoordinateBatch& cb, std::size_t idx,
                 util::Rng& crng, control::EvalScratch& s) {
            const int state = (*cb.states)[idx];
            ensure_reads(s);
            for (std::size_t r = 0; r < reads.size(); ++r) {
                s.resize_tracked(s.group_h[r], coord_base[r].size());
                cache_.row_delta(reads[r], array_id, cb.element, state,
                                 spans.data(), spans.size(), coord_base[r],
                                 s.group_h[r]);
            }
            return score(crng, s);
        });

    control::OptimizationOutcome outcome;
    outcome.trial_cost_s = trial_cost;

    control::SimClock clock;
    const control::BatchEvalFn eval =
        [this, &pool, &clock, trial_cost, responses_per_eval](
            const std::vector<surface::Config>& batch) {
            std::vector<double> scores = pool.evaluate(batch);
            // Every cached read inside the batch is a hit by the warm()
            // precondition; fold them at batch granularity so the
            // per-call path stays instrumentation-free.
            cache_counters_.add_hits(
                static_cast<std::uint64_t>(batch.size()) *
                responses_per_eval);
            clock.advance(trial_cost * static_cast<double>(batch.size()));
            return scores;
        };
    // Coordinate sweeps bypass full-configuration assembly, but only when
    // no fault model distorts candidates: faults rewrite arbitrary
    // elements (and flaky ones consume candidate rng), which the
    // base-plus-one-row arithmetic cannot represent.
    const control::CoordinateEvalFn coord_eval =
        fm ? control::CoordinateEvalFn{}
           : control::CoordinateEvalFn(
                 [this, &pool, &clock, trial_cost, responses_per_eval,
                  array_id, &reads, &spans, &coord_base](
                     const surface::Config& base, std::size_t element,
                     const std::vector<int>& states) {
                     for (std::size_t r = 0; r < reads.size(); ++r)
                         cache_.response_into(medium_, reads[r], array_id,
                                              base, element, spans.data(),
                                              spans.size(), coord_base[r]);
                     control::CoordinateBatch cb{&base, element, &states};
                     std::vector<double> scores =
                         pool.evaluate_coordinate(cb);
                     cache_counters_.add_hits(
                         static_cast<std::uint64_t>(states.size()) *
                         responses_per_eval);
                     clock.advance(trial_cost *
                                   static_cast<double>(states.size()));
                     return scores;
                 });
    const control::StopFn stop = [&clock, time_budget_s]() {
        return clock.now_s() >= time_budget_s;
    };

    {
        obs::TraceSpan search_span("core.system.search_batched", &clock);
        const auto compute_t0 = std::chrono::steady_clock::now();
        outcome.search =
            searcher.search_batched(space, eval, coord_eval, max_evals,
                                    rng, stop, pool.num_threads() * 2);
        outcome.search.compute_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - compute_t0)
                .count();
    }
    outcome.elapsed_s = clock.now_s();
    outcome.budget_limited = outcome.search.evaluations >= max_evals ||
                             clock.now_s() >= time_budget_s;

    // best_score is the max over noisy samples, biased high (see
    // SearchResult). Re-score the winner over fresh candidate rng
    // streams — routed through `eval` so the confirmation trials are
    // priced on the sim clock and counted as cache hits like any other.
    outcome.search.best_score_remeasured = outcome.search.best_score;
    if (!outcome.search.best_config.empty()) {
        obs::TraceSpan remeasure_span("core.system.remeasure", &clock);
        constexpr std::size_t kRemeasureEvals = 3;
        const std::vector<double> confirm = eval(std::vector<surface::Config>(
            kRemeasureEvals, outcome.search.best_config));
        double sum = 0.0;
        for (double v : confirm) sum += v;
        outcome.search.remeasure_evals = confirm.size();
        outcome.search.best_score_remeasured =
            sum / static_cast<double>(confirm.size());
    }
    control::record_search_telemetry(searcher.name(), outcome.search);
    pool.publish_worker_stats();

    // Actuate the winner through the normal (fault-distorting) path.
    if (!outcome.search.best_config.empty())
        apply(array_id, outcome.search.best_config);

    // Composite objectives also report every link's winner score: the
    // noise-free estimator-scale mean SNR under the applied (possibly
    // fault-distorted) configuration, read from the basis. Cold path.
    if (ml != nullptr && obs::enabled()) {
        const util::kernels::IndexRange full{0, num_sc};
        const surface::Config& applied =
            medium_.array(array_id).current_config();
        util::kernels::SplitVec wide;
        std::vector<double> noise(num_sc);
        std::vector<double> scores_db(num_links, 0.0);
        for (std::size_t g = 0; g < cache_.num_groups(); ++g) {
            cache_.response_into(medium_, cache_.group_segments(g),
                                 array_id, applied, MultiLinkCache::kNoSkip,
                                 &full, 1, wide);
            for (const std::size_t link_id : cache_.group_links(g)) {
                const std::size_t offset = cache_.view(link_id).offset;
                noise.assign(num_sc, link_noise[link_id]);
                scores_db[link_id] = util::kernels::snr_db_mean(
                    util::kernels::active(), wide.re.data() + offset,
                    wide.im.data() + offset, noise.data(), num_sc,
                    phy::kSnrCapDb, phy::kSnrFloorDb);
            }
        }
        cache_counters_.add_hits(num_links);
        record_multilink_telemetry(num_links, cache_.num_groups(),
                                   scores_db);
    }
    return outcome;
}

}  // namespace press::core
