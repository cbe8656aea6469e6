// Wideband Wi-Fi 6E/7 regime (DESIGN.md §15): the 996/1960-tone
// numerology presets, RU-mask algebra and tile-span widening, the masked
// and fused-delta kernels' bit-identity contracts, the tile-bounded
// LinkCache/MultiLinkCache reads agreeing with the full-width calls on
// every covered double, the masked optimize_fast path's bit-identical
// results across thread counts, delta modes and kernel flavors, and the
// FFT plan cache reproducing the legacy fft()/ifft() bits.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/link_cache.hpp"
#include "core/multilink_cache.hpp"
#include "core/scenarios.hpp"
#include "core/system.hpp"
#include "phy/ofdm.hpp"
#include "phy/rate.hpp"
#include "phy/ru.hpp"
#include "util/fft.hpp"
#include "util/fft_plan.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace press {
namespace {

namespace kernels = util::kernels;
using control::ControlPlaneModel;
using control::GreedyCoordinateDescent;
using control::MaskedSnrObjective;
using control::SearchResult;
using kernels::Dispatch;
using kernels::IndexRange;

std::vector<IndexRange> to_index_ranges(const std::vector<phy::RuRange>& spans) {
    std::vector<IndexRange> out;
    out.reserve(spans.size());
    for (const phy::RuRange& s : spans) out.push_back({s.first, s.size()});
    return out;
}

surface::Config random_config(const surface::ConfigSpace& space,
                              util::Rng& rng) {
    const std::vector<int>& radices = space.radices();
    surface::Config c(space.num_elements());
    for (std::size_t e = 0; e < c.size(); ++e)
        c[e] = static_cast<int>(rng.uniform_int(0, radices[e] - 1));
    return c;
}

// ------------------------------------------------------------- presets

TEST(WidebandPresets, Wifi6e160Shape) {
    const phy::OfdmParams p = phy::OfdmParams::wifi6e_160();
    EXPECT_EQ(p.fft_size(), 2048u);
    EXPECT_EQ(p.num_used(), 996u);
    EXPECT_DOUBLE_EQ(p.sample_rate_hz(), 160e6);
    EXPECT_GT(p.carrier_hz(), 5.925e9);  // 6 GHz U-NII band
    EXPECT_LT(p.carrier_hz(), 7.125e9);
    // 802.11ax tone spacing: 160e6 / 2048 = 78.125 kHz.
    EXPECT_DOUBLE_EQ(p.subcarrier_spacing_hz(), 78125.0);
    // Offsets strictly ascending, DC never modulated, symmetric halves.
    for (std::size_t i = 1; i < p.num_used(); ++i)
        EXPECT_LT(p.used_offset(i - 1), p.used_offset(i));
    for (std::size_t i = 0; i < p.num_used(); ++i)
        EXPECT_NE(p.used_offset(i), 0);
    EXPECT_EQ(p.used_offset(0), -p.used_offset(p.num_used() - 1));
    // fft_bin maps negative offsets to the upper half of the grid.
    EXPECT_EQ(p.fft_bin(p.num_used() - 1),
              static_cast<std::size_t>(p.used_offset(p.num_used() - 1)));
    EXPECT_EQ(p.fft_bin(0), p.fft_size() -
                                static_cast<std::size_t>(-p.used_offset(0)));
}

TEST(WidebandPresets, Wifi7_320Shape) {
    const phy::OfdmParams p = phy::OfdmParams::wifi7_320();
    EXPECT_EQ(p.fft_size(), 4096u);
    EXPECT_EQ(p.num_used(), 1960u);
    EXPECT_DOUBLE_EQ(p.sample_rate_hz(), 320e6);
    EXPECT_GT(p.carrier_hz(), 5.925e9);
    EXPECT_LT(p.carrier_hz(), 7.125e9);
    // Same 78.125 kHz spacing as 160 MHz: twice the rate, twice the FFT.
    EXPECT_DOUBLE_EQ(p.subcarrier_spacing_hz(), 78125.0);
    EXPECT_EQ(p.used_offset(0), -p.used_offset(p.num_used() - 1));
    // Grid round trip at the wide size.
    util::CVec used(p.num_used());
    for (std::size_t i = 0; i < used.size(); ++i)
        used[i] = {static_cast<double>(i), -0.5 * static_cast<double>(i)};
    const util::CVec grid = p.place_on_grid(used);
    ASSERT_EQ(grid.size(), p.fft_size());
    EXPECT_EQ(p.gather_from_grid(grid), used);
}

// ----------------------------------------------------- RU-mask algebra

TEST(RuMask, UniformPartitionAndPuncture) {
    const phy::RuMask mask = phy::RuMask::uniform(996, 8);
    ASSERT_EQ(mask.num_ru(), 8u);
    EXPECT_EQ(mask.num_used(), 996u);
    // Contiguous partition, sizes differing by at most one (996 = 8*124
    // + 4: four 125-tone RUs then four 124-tone RUs).
    std::size_t cursor = 0, min_sz = 996, max_sz = 0;
    for (std::size_t r = 0; r < mask.num_ru(); ++r) {
        EXPECT_EQ(mask.ru(r).first, cursor);
        cursor = mask.ru(r).last;
        min_sz = std::min(min_sz, mask.ru(r).size());
        max_sz = std::max(max_sz, mask.ru(r).size());
        EXPECT_TRUE(mask.ru_active(r));
    }
    EXPECT_EQ(cursor, 996u);
    EXPECT_LE(max_sz - min_sz, 1u);
    EXPECT_TRUE(mask.is_full());

    const phy::RuMask punct = mask.punctured({5});
    EXPECT_FALSE(punct.is_full());
    EXPECT_FALSE(punct.ru_active(5));
    EXPECT_EQ(punct.num_active(), 996u - punct.ru(5).size());
    // Active indices are ascending and skip exactly RU 5.
    const std::vector<std::size_t>& idx = punct.active_indices();
    ASSERT_EQ(idx.size(), punct.num_active());
    for (std::size_t i = 1; i < idx.size(); ++i) EXPECT_LT(idx[i - 1], idx[i]);
    for (const std::size_t k : idx)
        EXPECT_TRUE(k < punct.ru(5).first || k >= punct.ru(5).last);
}

TEST(RuMask, ComplementSelectsPuncturedTones) {
    const phy::RuMask punct = phy::RuMask::uniform(996, 8).punctured({2, 6});
    const phy::RuMask comp = punct.complement();
    EXPECT_EQ(comp.num_active() + punct.num_active(), 996u);
    // Every tone is active in exactly one of the two masks.
    std::vector<bool> seen(996, false);
    for (const std::size_t k : punct.active_indices()) seen[k] = true;
    for (const std::size_t k : comp.active_indices()) {
        EXPECT_FALSE(seen[k]);
        seen[k] = true;
    }
    for (const bool b : seen) EXPECT_TRUE(b);
}

TEST(RuMask, TileSpansWidenAndSkipOnlyWholeTiles) {
    constexpr std::size_t kTile = core::LinkCache::kTileSubcarriers;
    // Full mask: one span covering everything.
    const auto full = phy::RuMask::full(996).tile_spans(kTile);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0], (phy::RuRange{0, 996}));

    // A single punctured 124-tone RU never frees a whole 256-tone tile:
    // the widened spans merge back to the full width.
    const auto one = phy::RuMask::uniform(996, 8).punctured({5})
                         .tile_spans(kTile);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], (phy::RuRange{0, 996}));

    // Puncturing the adjacent run {4,5,6} (a >=256-tone hole) does skip
    // tiles: spans are tile-aligned, cover every active tone, and cover
    // strictly less than the full width.
    const phy::RuMask punct =
        phy::RuMask::uniform(996, 8).punctured({4, 5, 6});
    const auto spans = punct.tile_spans(kTile);
    ASSERT_GT(spans.size(), 1u);
    std::size_t covered = 0, prev_end = 0;
    for (const phy::RuRange& s : spans) {
        EXPECT_GE(s.first, prev_end);  // ascending, non-overlapping
        EXPECT_EQ(s.first % kTile, 0u);
        EXPECT_TRUE(s.last % kTile == 0 || s.last == 996u);
        covered += s.size();
        prev_end = s.last;
    }
    EXPECT_LT(covered, 996u);
    for (const std::size_t k : punct.active_indices()) {
        bool inside = false;
        for (const phy::RuRange& s : spans)
            inside = inside || (k >= s.first && k < s.last);
        EXPECT_TRUE(inside) << "active tone " << k << " outside spans";
    }
}

// ------------------------------------------------------ masked kernels

TEST(MaskedKernels, BitIdenticalFlavorsAndDenseEquivalence) {
    const phy::RuMask mask = phy::RuMask::uniform(996, 8).punctured({2, 5});
    const std::vector<IndexRange> ranges =
        to_index_ranges(mask.active_ranges());
    const std::vector<std::size_t>& idx = mask.active_indices();
    const std::size_t n = mask.num_used(), m = idx.size();

    util::Rng rng(404);
    std::vector<double> re(n), im(n), nv(n);
    for (std::size_t k = 0; k < n; ++k) {
        re[k] = rng.uniform(-1.0, 1.0);
        im[k] = rng.uniform(-1.0, 1.0);
        nv[k] = rng.uniform(1e-6, 1e-2);
    }

    // masked_gather: dense compaction, flavors identical, equals a
    // hand-rolled gather.
    std::vector<double> gs_re(m), gs_im(m), gn_re(m), gn_im(m);
    kernels::masked_gather(Dispatch::kScalar, re.data(), im.data(),
                           idx.data(), m, gs_re.data(), gs_im.data());
    kernels::masked_gather(Dispatch::kNative, re.data(), im.data(),
                           idx.data(), m, gn_re.data(), gn_im.data());
    EXPECT_EQ(gs_re, gn_re);
    EXPECT_EQ(gs_im, gn_im);
    for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(gs_re[i], re[idx[i]]);

    // Masked reductions == dense gather + unmasked reduction, and the
    // flavors agree bitwise (the blocked reduction runs over the dense
    // masked axis).
    std::vector<double> gnv(m);
    for (std::size_t i = 0; i < m; ++i) gnv[i] = nv[idx[i]];
    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kNative}) {
        EXPECT_EQ(kernels::masked_snr_db_min(d, re.data(), im.data(),
                                             nv.data(), idx.data(), m, 50.0,
                                             -30.0),
                  kernels::snr_db_min(d, gs_re.data(), gs_im.data(),
                                      gnv.data(), m, 50.0, -30.0));
        EXPECT_EQ(kernels::masked_snr_db_mean(d, re.data(), im.data(),
                                              nv.data(), idx.data(), m,
                                              50.0, -30.0),
                  kernels::snr_db_mean(d, gs_re.data(), gs_im.data(),
                                       gnv.data(), m, 50.0, -30.0));
    }
    EXPECT_EQ(kernels::masked_snr_db_min(Dispatch::kScalar, re.data(),
                                         im.data(), nv.data(), idx.data(),
                                         m, 50.0, -30.0),
              kernels::masked_snr_db_min(Dispatch::kNative, re.data(),
                                         im.data(), nv.data(), idx.data(),
                                         m, 50.0, -30.0));

    // masked_ltf_mean_var == full-width ltf_mean_var + gather of the
    // outputs, both flavors.
    const std::size_t repeats = 4;
    std::vector<double> raw_re(repeats * n), raw_im(repeats * n);
    for (std::size_t k = 0; k < raw_re.size(); ++k) {
        raw_re[k] = rng.uniform(-1.0, 1.0);
        raw_im[k] = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> fm_re(n), fm_im(n), fvar(n);
    kernels::ltf_mean_var(Dispatch::kScalar, raw_re.data(), raw_im.data(),
                          repeats, n, fm_re.data(), fm_im.data(),
                          fvar.data());
    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kNative}) {
        std::vector<double> mm_re(m), mm_im(m), mvar(m);
        kernels::masked_ltf_mean_var(d, raw_re.data(), raw_im.data(),
                                     repeats, n, idx.data(), m, mm_re.data(),
                                     mm_im.data(), mvar.data());
        for (std::size_t i = 0; i < m; ++i) {
            EXPECT_EQ(mm_re[i], fm_re[idx[i]]);
            EXPECT_EQ(mm_im[i], fm_im[idx[i]]);
            EXPECT_EQ(mvar[i], fvar[idx[i]]);
        }
    }

    // masked_accumulate touches exactly the ranges, bit-identical to a
    // full accumulate on those positions.
    std::vector<double> row_re(n), row_im(n);
    for (std::size_t k = 0; k < n; ++k) {
        row_re[k] = rng.uniform(-1.0, 1.0);
        row_im[k] = rng.uniform(-1.0, 1.0);
    }
    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kNative}) {
        std::vector<double> full_re = re, full_im = im;
        kernels::accumulate(d, row_re.data(), row_im.data(), full_re.data(),
                            full_im.data(), n);
        std::vector<double> msk_re = re, msk_im = im;
        kernels::masked_accumulate(d, row_re.data(), row_im.data(),
                                   msk_re.data(), msk_im.data(),
                                   ranges.data(), ranges.size());
        std::vector<bool> in_range(n, false);
        for (const IndexRange& r : ranges)
            for (std::size_t k = r.offset; k < r.offset + r.len; ++k)
                in_range[k] = true;
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(msk_re[k], in_range[k] ? full_re[k] : re[k]);
            EXPECT_EQ(msk_im[k], in_range[k] ? full_im[k] : im[k]);
        }
    }
}

TEST(MaskedKernels, FusedCopyAccumulateMatchesTwoStep) {
    const std::size_t n = 996;
    util::Rng rng(77);
    std::vector<double> src_re(n), src_im(n), row_re(n), row_im(n);
    for (std::size_t k = 0; k < n; ++k) {
        src_re[k] = rng.uniform(-1.0, 1.0);
        src_im[k] = rng.uniform(-1.0, 1.0);
        row_re[k] = rng.uniform(-1.0, 1.0);
        row_im[k] = rng.uniform(-1.0, 1.0);
    }
    const phy::RuMask mask =
        phy::RuMask::uniform(n, 8).punctured({4, 5, 6});
    const std::vector<IndexRange> spans =
        to_index_ranges(mask.tile_spans(core::LinkCache::kTileSubcarriers));

    for (const Dispatch d : {Dispatch::kScalar, Dispatch::kNative}) {
        // Full width: dst = src + row in one pass == copy then accumulate.
        std::vector<double> two_re(n), two_im(n);
        kernels::copy(d, src_re.data(), src_im.data(), two_re.data(),
                      two_im.data(), n);
        kernels::accumulate(d, row_re.data(), row_im.data(), two_re.data(),
                            two_im.data(), n);
        std::vector<double> fused_re(n), fused_im(n);
        kernels::copy_accumulate(d, src_re.data(), src_im.data(),
                                 row_re.data(), row_im.data(),
                                 fused_re.data(), fused_im.data(), n);
        EXPECT_EQ(fused_re, two_re);
        EXPECT_EQ(fused_im, two_im);

        // Tile-bounded: covered doubles match the full fused pass,
        // everything outside is left exactly as initialized.
        std::vector<double> m_re(n, -9.0), m_im(n, -9.0);
        kernels::masked_copy_accumulate(d, src_re.data(), src_im.data(),
                                        row_re.data(), row_im.data(),
                                        m_re.data(), m_im.data(),
                                        spans.data(), spans.size());
        std::vector<bool> in_span(n, false);
        for (const IndexRange& r : spans)
            for (std::size_t k = r.offset; k < r.offset + r.len; ++k)
                in_span[k] = true;
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(m_re[k], in_span[k] ? fused_re[k] : -9.0);
            EXPECT_EQ(m_im[k], in_span[k] ? fused_im[k] : -9.0);
        }
    }
    // Flavors bit-identical (element-wise kernels, by construction —
    // asserted anyway because the delta path's equality proof rests on it).
    std::vector<double> s_re(n), s_im(n), v_re(n), v_im(n);
    kernels::copy_accumulate(Dispatch::kScalar, src_re.data(), src_im.data(),
                             row_re.data(), row_im.data(), s_re.data(),
                             s_im.data(), n);
    kernels::copy_accumulate(Dispatch::kNative, src_re.data(), src_im.data(),
                             row_re.data(), row_im.data(), v_re.data(),
                             v_im.data(), n);
    EXPECT_EQ(s_re, v_re);
    EXPECT_EQ(s_im, v_im);
}

// ------------------------------------------------- tile-bounded cache

TEST(WidebandCache, ElementRowDeltaMatchesTwoStepBitExactly) {
    core::WidebandScenario scenario = core::make_wideband_scenario(31);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    const std::size_t num_sc = medium.ofdm().num_used();
    const std::vector<IndexRange> spans = to_index_ranges(
        scenario.mask.tile_spans(core::LinkCache::kTileSubcarriers));

    util::Rng rng(9);
    kernels::SplitVec base, two, fused;
    for (int trial = 0; trial < 3; ++trial) {
        const surface::Config config = random_config(space, rng);
        const std::size_t element = trial * 5 % space.num_elements();
        const int state =
            static_cast<int>(rng.uniform_int(0, space.radices()[element] - 1));
        cache.response_base_into(medium, scenario.link_id, link,
                                 scenario.array_id, config, element, base);
        ASSERT_EQ(base.size(), num_sc);

        // Full width: fused single pass == copy + accumulate_element_row.
        two.resize(num_sc);
        kernels::copy(kernels::active(), base.re.data(), base.im.data(),
                      two.re.data(), two.im.data(), num_sc);
        cache.accumulate_element_row(scenario.link_id, scenario.array_id,
                                     element, state, two);
        fused.resize(num_sc);
        cache.element_row_delta(scenario.link_id, scenario.array_id, element,
                                state, base, fused);
        EXPECT_EQ(fused.re, two.re);
        EXPECT_EQ(fused.im, two.im);

        // Tile-bounded: the fused ranges call matches the full-width
        // result on every covered double.
        kernels::SplitVec ranged;
        ranged.assign_zero(num_sc);
        cache.element_row_delta_ranges(scenario.link_id, scenario.array_id,
                                       element, state, spans.data(),
                                       spans.size(), base, ranged);
        for (const IndexRange& r : spans)
            for (std::size_t k = r.offset; k < r.offset + r.len; ++k) {
                EXPECT_EQ(ranged.re[k], fused.re[k]);
                EXPECT_EQ(ranged.im[k], fused.im[k]);
            }
    }
}

TEST(WidebandCache, RangedReadsMatchFullWidthOnSpans) {
    core::WidebandScenario scenario = core::make_wideband_scenario(32);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    const std::size_t num_sc = medium.ofdm().num_used();
    const std::vector<IndexRange> spans = to_index_ranges(
        scenario.mask.tile_spans(core::LinkCache::kTileSubcarriers));

    util::Rng rng(10);
    const surface::Config config = random_config(space, rng);
    kernels::SplitVec full, ranged;
    cache.response_into(medium, scenario.link_id, link, scenario.array_id,
                        config, full);
    ranged.assign_zero(num_sc);
    cache.response_ranges_into(medium, scenario.link_id, link,
                               scenario.array_id, config, spans.data(),
                               spans.size(), ranged);
    for (const IndexRange& r : spans)
        for (std::size_t k = r.offset; k < r.offset + r.len; ++k) {
            EXPECT_EQ(ranged.re[k], full.re[k]);
            EXPECT_EQ(ranged.im[k], full.im[k]);
        }
}

TEST(WidebandCache, GroupResponseRangesMatchesFullOnSpans) {
    core::MultiLinkParams params;
    params.num_aps = 2;
    params.clients_per_ap = 2;
    core::MultiLinkScenario scenario = core::make_multi_link_scenario(7, params);
    core::System& system = scenario.system;
    system.warm_multilink();
    const core::MultiLinkCache& cache = system.multilink_cache();
    const surface::ConfigSpace space =
        system.medium().array(scenario.array_id).config_space();
    // 20 MHz numerology: one 52-tone span exercises the per-member
    // segment walk without needing a wide scene.
    const std::vector<IndexRange> spans = {{0, 16}, {32, 20}};

    util::Rng rng(11);
    const surface::Config config = random_config(space, rng);
    for (std::size_t group = 0; group < cache.num_groups(); ++group) {
        kernels::SplitVec full, ranged;
        cache.group_response_into(system.medium(), group, scenario.array_id,
                                  config, full);
        ranged.assign_zero(full.size());
        cache.group_response_ranges_into(system.medium(), group,
                                         scenario.array_id, config,
                                         spans.data(), spans.size(), ranged);
        const std::size_t stride = cache.link_stride();
        for (std::size_t slot = 0; slot * stride < full.size(); ++slot)
            for (const IndexRange& r : spans)
                for (std::size_t k = 0; k < r.len; ++k) {
                    const std::size_t at = slot * stride + r.offset + k;
                    EXPECT_EQ(ranged.re[at], full.re[at]);
                    EXPECT_EQ(ranged.im[at], full.im[at]);
                }
    }
}

// ------------------------------------------------- masked optimization

// The tentpole reproducibility property: a masked greedy search over the
// 996-tone scene lands on the same configuration, bit for bit, for any
// thread count and either kernel flavor — the fused base-plus-row delta
// adds the swept row last on every covered tone.
TEST(WidebandSearch, MaskedOptimizeBitIdenticalAcrossThreadsAndKernels) {
    const auto run = [](std::size_t threads, Dispatch dispatch) {
        const Dispatch before = kernels::active();
        kernels::set_dispatch(dispatch);
        core::WidebandScenario scenario = core::make_wideband_scenario(33);
        util::Rng rng(21);
        const auto outcome = scenario.system.optimize_fast(
            scenario.array_id,
            MaskedSnrObjective(scenario.mask,
                               control::FusedSpec::Kind::kMinSnr),
            GreedyCoordinateDescent(), ControlPlaneModel::fast(), 0.05,
            rng, threads);
        kernels::set_dispatch(before);
        return outcome.search;
    };
    const SearchResult base = run(1, Dispatch::kScalar);
    EXPECT_GT(base.evaluations, 0u);
    for (const std::size_t threads : {3u, 8u}) {
        const SearchResult t = run(threads, Dispatch::kScalar);
        EXPECT_EQ(base.best_config, t.best_config);
        EXPECT_EQ(base.best_score, t.best_score);
        EXPECT_EQ(base.trajectory, t.trajectory);
    }
    const SearchResult native = run(1, Dispatch::kNative);
    EXPECT_EQ(base.best_config, native.best_config);
    EXPECT_EQ(base.best_score, native.best_score);
}

// ----------------------------------------------------------- FFT plans

TEST(FftPlan, BitIdenticalToLegacyTransforms) {
    // Power-of-two sizes run planned radix-2; the rest run planned
    // Bluestein (including 996 and the N210-ish 100). Every output must
    // reproduce util::fft()/ifft() bit for bit.
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}, std::size_t{64},
                                std::size_t{100}, std::size_t{128},
                                std::size_t{996}, std::size_t{2048}}) {
        const util::FftPlan plan(n);
        EXPECT_EQ(plan.size(), n);
        EXPECT_EQ(plan.uses_bluestein(), n >= 2 && (n & (n - 1)) != 0);
        util::Rng rng(1000 + n);
        util::CVec x(n);
        for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        const util::CVec want_fwd = util::fft(x);
        const util::CVec want_inv = util::ifft(x);
        util::FftScratch scratch;
        util::CVec fwd, inv;
        plan.forward(x, fwd, scratch);
        plan.inverse(x, inv, scratch);
        ASSERT_EQ(fwd.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(fwd[k].real(), want_fwd[k].real()) << "n=" << n;
            EXPECT_EQ(fwd[k].imag(), want_fwd[k].imag()) << "n=" << n;
            EXPECT_EQ(inv[k].real(), want_inv[k].real()) << "n=" << n;
            EXPECT_EQ(inv[k].imag(), want_inv[k].imag()) << "n=" << n;
        }
        // Scratch reuse across sizes is part of the contract (buffers
        // grow, never shrink) — run a second transform into the same
        // scratch and expect the same bits.
        util::CVec again;
        plan.forward(x, again, scratch);
        EXPECT_EQ(again, fwd);
    }
}

TEST(FftPlan, ProcessCacheReturnsSamePlan) {
    const util::FftPlan& a = util::plan_for(2048);
    const util::FftPlan& b = util::plan_for(2048);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 2048u);
    // Legacy entry points route through the cache: fft() after plan_for
    // must still match a direct plan execution (bit-identity covered
    // above; this guards the routing).
    util::Rng rng(5);
    util::CVec x(2048);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    util::FftScratch scratch;
    util::CVec planned;
    a.forward(x, planned, scratch);
    EXPECT_EQ(util::fft(x), planned);
}

// ------------------------------------------------------- effective SNR

TEST(EffectiveSnr, FusedKernelFlavorsAgreeAndTrackReference) {
    util::Rng rng(8);
    std::vector<double> snr_db(996);
    for (auto& v : snr_db) v = rng.uniform(-10.0, 40.0);
    const double scalar = kernels::effective_snr_db(
        Dispatch::kScalar, snr_db.data(), snr_db.size());
    const double native = kernels::effective_snr_db(
        Dispatch::kNative, snr_db.data(), snr_db.size());
    EXPECT_EQ(scalar, native);  // blocked reduction, both flavors
    EXPECT_EQ(phy::effective_snr_db(snr_db), scalar);
    // The serial reference associates differently; agreement is to
    // rounding, not bits.
    EXPECT_NEAR(phy::effective_snr_db_reference(snr_db), scalar, 1e-9);
}

}  // namespace
}  // namespace press
