// Reference tests for the split-complex kernel layer: every kernel must
// reproduce a plain in-test loop bit for bit — element-wise kernels
// against straight loops, reductions against the kLanes lane reference
// (element i into lane i & 3, combined as (l0 + l1) + (l2 + l3)) —
// across randomized sizes (including every tail shape of the 4-lane
// blocked reduction) and unaligned span offsets; and the fused sounding
// kernels must reproduce the phy reference arithmetic
// (combine_ltf_estimates, ChannelEstimate::snr_db) bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <vector>

#include "phy/chanest.hpp"
#include "util/cvec.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace press::util::kernels {
namespace {

constexpr Dispatch kD = active();

/// Sizes covering each blocked-reduction tail (n mod 4 in {0,1,2,3}),
/// the degenerate n=1..4, and a few realistic subcarrier counts.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 52, 63, 64, 117, 128};

std::vector<double> random_span(std::size_t n, Rng& rng, double lo = -2.0,
                                double hi = 2.0) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform(lo, hi);
    return v;
}

/// The blocked-reduction contract written as a rolling loop: element i
/// folds into lane i & 3, lanes combine as (l0 + l1) + (l2 + l3).
template <typename Value>
double lane_sum(std::size_t n, Value value) {
    double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) lanes[i & 3] += value(i);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

template <typename Value>
double lane_min(std::size_t n, Value value) {
    double lanes[kLanes];
    std::fill_n(lanes, kLanes, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i)
        lanes[i & 3] = std::min(lanes[i & 3], value(i));
    return std::min(std::min(lanes[0], lanes[1]),
                    std::min(lanes[2], lanes[3]));
}

/// One tone of ChannelEstimate::snr_db, written out.
double snr_value(double re, double im, double var, double cap, double floor) {
    const double sig = re * re + im * im;
    if (var <= 0.0 || sig <= 0.0) return sig <= 0.0 ? floor : cap;
    return std::clamp(linear_to_db(sig / var), floor, cap);
}

TEST(Kernels, ElementwiseOpsMatchPlainLoops) {
    Rng rng(101);
    for (const std::size_t n : kSizes) {
        // Offset the spans so the kernels also run unaligned.
        for (const std::size_t offset : {0u, 1u, 3u}) {
            const std::vector<double> re = random_span(n + offset, rng);
            const std::vector<double> im = random_span(n + offset, rng);
            const std::vector<double> row_re =
                random_span(n + offset, rng);
            const std::vector<double> row_im =
                random_span(n + offset, rng);

            std::vector<double> dst_re(n, 0.0), dst_im(n, 0.0);
            copy(kD, re.data() + offset, im.data() + offset, dst_re.data(),
                 dst_im.data(), n);
            accumulate(kD, row_re.data() + offset, row_im.data() + offset,
                       dst_re.data(), dst_im.data(), n);
            std::vector<double> fused_re(n), fused_im(n);
            copy_accumulate(kD, re.data() + offset, im.data() + offset,
                            row_re.data() + offset, row_im.data() + offset,
                            fused_re.data(), fused_im.data(), n);
            std::vector<double> want_re(n), want_im(n);
            for (std::size_t k = 0; k < n; ++k) {
                want_re[k] = re[offset + k] + row_re[offset + k];
                want_im[k] = im[offset + k] + row_im[offset + k];
            }
            EXPECT_EQ(dst_re, want_re) << "n=" << n;
            EXPECT_EQ(dst_im, want_im) << "n=" << n;
            EXPECT_EQ(fused_re, want_re) << "n=" << n;
            EXPECT_EQ(fused_im, want_im) << "n=" << n;
        }
    }
}

TEST(Kernels, ReductionsMatchLaneReference) {
    Rng rng(202);
    for (const std::size_t n : kSizes) {
        for (const std::size_t offset : {0u, 1u, 3u}) {
            const std::vector<double> xs = random_span(n + offset, rng);
            const std::vector<double> res = random_span(n + offset, rng);
            const std::vector<double> ims = random_span(n + offset, rng);
            const std::vector<double> vars =
                random_span(n + offset, rng, 1e-6, 1.0);
            const double* x = xs.data() + offset;
            const double* re = res.data() + offset;
            const double* im = ims.data() + offset;
            const double* var = vars.data() + offset;
            const double count = static_cast<double>(n);
            const auto xv = [x](std::size_t i) { return x[i]; };
            const auto a2 = [re, im](std::size_t i) {
                return re[i] * re[i] + im[i] * im[i];
            };
            const auto snr = [=](std::size_t i) {
                return snr_value(re[i], im[i], var[i], 60.0, 0.0);
            };
            EXPECT_EQ(min(kD, x, n), lane_min(n, xv)) << "n=" << n;
            EXPECT_EQ(mean(kD, x, n), lane_sum(n, xv) / count);
            EXPECT_EQ(abs2_min(kD, re, im, n), lane_min(n, a2));
            EXPECT_EQ(abs2_mean(kD, re, im, n), lane_sum(n, a2) / count);
            EXPECT_EQ(snr_db_min(kD, re, im, var, n, 60.0, 0.0),
                      lane_min(n, snr));
            EXPECT_EQ(snr_db_mean(kD, re, im, var, n, 60.0, 0.0),
                      lane_sum(n, snr) / count);

            // The capacity fold over an SNR profile in dB.
            const auto bits = [x](std::size_t i) {
                return std::log2(1.0 + db_to_linear(20.0 * x[i]));
            };
            std::vector<double> snr_db(n);
            for (std::size_t i = 0; i < n; ++i) snr_db[i] = 20.0 * x[i];
            EXPECT_EQ(effective_snr_db(kD, snr_db.data(), n),
                      linear_to_db(
                          std::pow(2.0, lane_sum(n, bits) / count) - 1.0));
        }
    }
}

TEST(Kernels, MaskedKernelsMatchLaneReference) {
    Rng rng(212);
    for (const std::size_t m : kSizes) {
        for (const std::size_t offset : {0u, 1u, 3u}) {
            // m active tones spread over a wider axis, ascending.
            const std::size_t width = 3 * m + offset + 1;
            std::vector<std::size_t> idx(m);
            for (std::size_t i = 0; i < m; ++i) idx[i] = offset + 3 * i;
            const std::vector<double> re = random_span(width, rng);
            const std::vector<double> im = random_span(width, rng);
            const std::vector<double> var =
                random_span(width, rng, 1e-6, 1.0);
            const double count = static_cast<double>(m);
            const auto snr = [&](std::size_t i) {
                const std::size_t k = idx[i];
                return snr_value(re[k], im[k], var[k], 50.0, -30.0);
            };
            EXPECT_EQ(masked_snr_db_min(kD, re.data(), im.data(),
                                        var.data(), idx.data(), m, 50.0,
                                        -30.0),
                      lane_min(m, snr))
                << "m=" << m;
            EXPECT_EQ(masked_snr_db_mean(kD, re.data(), im.data(),
                                         var.data(), idx.data(), m, 50.0,
                                         -30.0),
                      lane_sum(m, snr) / count)
                << "m=" << m;

            std::vector<double> g_re(m), g_im(m);
            masked_gather(kD, re.data(), im.data(), idx.data(), m,
                          g_re.data(), g_im.data());
            for (std::size_t i = 0; i < m; ++i) {
                EXPECT_EQ(g_re[i], re[idx[i]]);
                EXPECT_EQ(g_im[i], im[idx[i]]);
            }
        }
    }
}

TEST(Kernels, LtfCombiningMatchesPlainLoops) {
    Rng rng(303);
    for (const std::size_t n : kSizes) {
        for (const std::size_t repeats : {2u, 3u, 4u, 7u}) {
            const std::vector<double> raw_re =
                random_span(repeats * n, rng);
            const std::vector<double> raw_im =
                random_span(repeats * n, rng);
            std::vector<double> mean_re(n, -1.0), mean_im(n, -1.0),
                noise_var(n, -1.0);
            ltf_mean_var(kD, raw_re.data(), raw_im.data(), repeats, n,
                         mean_re.data(), mean_im.data(), noise_var.data());
            const double count = static_cast<double>(repeats);
            std::vector<double> want_re(n, 0.0), want_im(n, 0.0),
                want_var(n, 0.0);
            for (std::size_t r = 0; r < repeats; ++r)
                for (std::size_t k = 0; k < n; ++k) {
                    want_re[k] += raw_re[r * n + k] / count;
                    want_im[k] += raw_im[r * n + k] / count;
                }
            for (std::size_t r = 0; r < repeats; ++r)
                for (std::size_t k = 0; k < n; ++k) {
                    const double dre = raw_re[r * n + k] - want_re[k];
                    const double dim = raw_im[r * n + k] - want_im[k];
                    want_var[k] += (dre * dre + dim * dim) / (count - 1.0);
                }
            EXPECT_EQ(mean_re, want_re) << "n=" << n;
            EXPECT_EQ(mean_im, want_im) << "n=" << n;
            EXPECT_EQ(noise_var, want_var) << "n=" << n;
        }
    }
}

TEST(Kernels, GatherAccumulateEqualsRowByRowAccumulate) {
    Rng rng(404);
    const std::size_t n = 52;
    const std::size_t table_rows = 12;
    const std::vector<double> table_re = random_span(table_rows * n, rng);
    const std::vector<double> table_im = random_span(table_rows * n, rng);
    const std::vector<std::size_t> rows = {3, 0, 7, 7, 11, 2};
    std::vector<double> a_re(n, 0.5), a_im(n, -0.5);
    std::vector<double> b_re(n, 0.5), b_im(n, -0.5);
    gather_accumulate(kD, table_re.data(), table_im.data(), rows.data(),
                      rows.size(), a_re.data(), a_im.data(), n);
    for (const std::size_t r : rows)
        accumulate(kD, table_re.data() + r * n, table_im.data() + r * n,
                   b_re.data(), b_im.data(), n);
    EXPECT_EQ(a_re, b_re);
    EXPECT_EQ(a_im, b_im);
}

TEST(Kernels, LtfCombiningMatchesPhyReferenceBitwise) {
    Rng rng(505);
    for (const std::size_t n : {1u, 5u, 52u}) {
        for (const std::size_t repeats : {2u, 4u}) {
            // Build the same raw estimates in both layouts.
            std::vector<util::CVec> raw_aos(repeats, util::CVec(n));
            std::vector<double> raw_re(repeats * n), raw_im(repeats * n);
            for (std::size_t r = 0; r < repeats; ++r)
                for (std::size_t k = 0; k < n; ++k) {
                    const std::complex<double> z = rng.complex_gaussian();
                    raw_aos[r][k] = z;
                    raw_re[r * n + k] = z.real();
                    raw_im[r * n + k] = z.imag();
                }
            const phy::ChannelEstimate ref =
                phy::combine_ltf_estimates(raw_aos);
            std::vector<double> mean_re(n), mean_im(n), noise_var(n);
            ltf_mean_var(kD, raw_re.data(), raw_im.data(), repeats, n,
                         mean_re.data(), mean_im.data(), noise_var.data());
            for (std::size_t k = 0; k < n; ++k) {
                EXPECT_EQ(mean_re[k], ref.h[k].real());
                EXPECT_EQ(mean_im[k], ref.h[k].imag());
                EXPECT_EQ(noise_var[k], ref.noise_var[k]);
            }
            // And the SNR span (plus its fused reductions) matches the
            // reference estimate's.
            const std::vector<double> want =
                ref.snr_db(phy::kSnrCapDb, phy::kSnrFloorDb);
            std::vector<double> got(n);
            snr_db_into(kD, mean_re.data(), mean_im.data(),
                        noise_var.data(), n, phy::kSnrCapDb,
                        phy::kSnrFloorDb, got.data());
            EXPECT_EQ(got, want);
            EXPECT_EQ(snr_db_min(kD, mean_re.data(), mean_im.data(),
                                 noise_var.data(), n, phy::kSnrCapDb,
                                 phy::kSnrFloorDb),
                      min(kD, want.data(), n));
            EXPECT_EQ(snr_db_mean(kD, mean_re.data(), mean_im.data(),
                                  noise_var.data(), n, phy::kSnrCapDb,
                                  phy::kSnrFloorDb),
                      mean(kD, want.data(), n));
        }
    }
}

TEST(Kernels, SnrClampingMatchesPhyEdgeCases) {
    // Degenerate subcarriers: zero signal floors, zero/negative noise
    // variance caps (unless the signal is also zero) — exactly
    // ChannelEstimate::snr_db's rules.
    const std::vector<double> re = {0.0, 1.0, 1.0, 1e-12, 0.0};
    const std::vector<double> im = {0.0, 0.0, 1.0, 0.0, 0.0};
    const std::vector<double> var = {1.0, 0.0, -1.0, 1.0, 0.0};
    phy::ChannelEstimate ref;
    for (std::size_t k = 0; k < re.size(); ++k) {
        ref.h.push_back({re[k], im[k]});
        ref.noise_var.push_back(var[k]);
    }
    const std::vector<double> want = ref.snr_db();
    std::vector<double> got(re.size());
    snr_db_into(kD, re.data(), im.data(), var.data(), re.size(),
                phy::kSnrCapDb, phy::kSnrFloorDb, got.data());
    EXPECT_EQ(got, want);
    EXPECT_EQ(snr_db_min(kD, re.data(), im.data(), var.data(), re.size(),
                         phy::kSnrCapDb, phy::kSnrFloorDb),
              min(kD, want.data(), want.size()));
}

TEST(Kernels, MinMatchesSequentialSemantics) {
    // The blocked min must still BE the minimum (association only ever
    // changes comparison order, never the winner).
    Rng rng(606);
    for (const std::size_t n : kSizes) {
        const std::vector<double> x = random_span(n, rng);
        double seq = x[0];
        for (const double v : x) seq = std::min(seq, v);
        EXPECT_EQ(min(kD, x.data(), n), seq);
    }
}

TEST(Kernels, InterleaveRoundTrips) {
    Rng rng(707);
    const std::size_t n = 52;
    const std::vector<double> re = random_span(n, rng);
    const std::vector<double> im = random_span(n, rng);
    util::CVec aos(n);
    interleave(re.data(), im.data(), aos.data(), n);
    std::vector<double> re2(n), im2(n);
    deinterleave(aos.data(), re2.data(), im2.data(), n);
    EXPECT_EQ(re, re2);
    EXPECT_EQ(im, im2);
}

}  // namespace
}  // namespace press::util::kernels
