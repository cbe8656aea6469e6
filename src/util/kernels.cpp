#include "util/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace press::util::kernels {

namespace {

// Per-element value helpers: they keep the clamping semantics in exactly
// one place.

/// One subcarrier of phy::ChannelEstimate::snr_db.
inline double snr_db_value(double re, double im, double var, double cap_db,
                           double floor_db) {
    const double sig = re * re + im * im;
    if (var <= 0.0 || sig <= 0.0) return sig <= 0.0 ? floor_db : cap_db;
    return std::clamp(linear_to_db(sig / var), floor_db, cap_db);
}

inline double abs2_value(double re, double im) { return re * re + im * im; }

/// Blocked-reduction lane state (kLanes accumulators, see kernels.hpp).
/// combine_* folds (l0 op l1) op (l2 op l3), always.
inline double combine_sum(const double l[kLanes]) {
    return (l[0] + l[1]) + (l[2] + l[3]);
}
inline double combine_min(const double l[kLanes]) {
    return std::min(std::min(l[0], l[1]), std::min(l[2], l[3]));
}

// Blocked reductions in steps of kLanes, so the auto-vectorizer maps the
// lanes onto SIMD registers. The block tail feeds lane (i & 3): element
// i always lands in lane i mod 4, whatever the vector width.

template <typename Value>
double reduce_sum(std::size_t n, Value value) {
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += kLanes) {
        l0 += value(i);
        l1 += value(i + 1);
        l2 += value(i + 2);
        l3 += value(i + 3);
    }
    if (n4 + 0 < n) l0 += value(n4 + 0);
    if (n4 + 1 < n) l1 += value(n4 + 1);
    if (n4 + 2 < n) l2 += value(n4 + 2);
    const double lanes[kLanes] = {l0, l1, l2, l3};
    return combine_sum(lanes);
}

template <typename Value>
double reduce_min(std::size_t n, Value value) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    double l0 = inf, l1 = inf, l2 = inf, l3 = inf;
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += kLanes) {
        l0 = std::min(l0, value(i));
        l1 = std::min(l1, value(i + 1));
        l2 = std::min(l2, value(i + 2));
        l3 = std::min(l3, value(i + 3));
    }
    if (n4 + 0 < n) l0 = std::min(l0, value(n4 + 0));
    if (n4 + 1 < n) l1 = std::min(l1, value(n4 + 1));
    if (n4 + 2 < n) l2 = std::min(l2, value(n4 + 2));
    const double lanes[kLanes] = {l0, l1, l2, l3};
    return combine_min(lanes);
}

}  // namespace

void copy(Dispatch, const double* __restrict__ src_re,
          const double* __restrict__ src_im, double* __restrict__ dst_re,
          double* __restrict__ dst_im, std::size_t n) {
#pragma GCC ivdep
    for (std::size_t k = 0; k < n; ++k) {
        dst_re[k] = src_re[k];
        dst_im[k] = src_im[k];
    }
}

void accumulate(Dispatch, const double* __restrict__ row_re,
                const double* __restrict__ row_im,
                double* __restrict__ dst_re, double* __restrict__ dst_im,
                std::size_t n) {
#pragma GCC ivdep
    for (std::size_t k = 0; k < n; ++k) {
        dst_re[k] += row_re[k];
        dst_im[k] += row_im[k];
    }
}

void copy_accumulate(Dispatch, const double* __restrict__ src_re,
                     const double* __restrict__ src_im,
                     const double* __restrict__ row_re,
                     const double* __restrict__ row_im,
                     double* __restrict__ dst_re,
                     double* __restrict__ dst_im, std::size_t n) {
#pragma GCC ivdep
    for (std::size_t k = 0; k < n; ++k) {
        dst_re[k] = src_re[k] + row_re[k];
        dst_im[k] = src_im[k] + row_im[k];
    }
}

void gather_accumulate(Dispatch d, const double* table_re,
                       const double* table_im, const std::size_t* rows,
                       std::size_t num_rows, double* dst_re, double* dst_im,
                       std::size_t n) {
    for (std::size_t r = 0; r < num_rows; ++r)
        accumulate(d, table_re + rows[r] * n, table_im + rows[r] * n,
                   dst_re, dst_im, n);
}

void interleave(const double* re, const double* im,
                std::complex<double>* out, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k)
        out[k] = std::complex<double>{re[k], im[k]};
}

void deinterleave(const std::complex<double>* in, double* re, double* im,
                  std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        re[k] = in[k].real();
        im[k] = in[k].imag();
    }
}

double min(Dispatch, const double* x, std::size_t n) {
    PRESS_EXPECTS(n > 0, "min of an empty span");
    const auto value = [x](std::size_t i) { return x[i]; };
    return reduce_min(n, value);
}

double mean(Dispatch, const double* x, std::size_t n) {
    PRESS_EXPECTS(n > 0, "mean of an empty span");
    const auto value = [x](std::size_t i) { return x[i]; };
    const double sum = reduce_sum(n, value);
    return sum / static_cast<double>(n);
}

double abs2_min(Dispatch, const double* re, const double* im,
                std::size_t n) {
    PRESS_EXPECTS(n > 0, "min of an empty span");
    const auto value = [re, im](std::size_t i) {
        return abs2_value(re[i], im[i]);
    };
    return reduce_min(n, value);
}

double abs2_mean(Dispatch, const double* re, const double* im,
                 std::size_t n) {
    PRESS_EXPECTS(n > 0, "mean of an empty span");
    const auto value = [re, im](std::size_t i) {
        return abs2_value(re[i], im[i]);
    };
    const double sum = reduce_sum(n, value);
    return sum / static_cast<double>(n);
}

void ltf_mean_var(Dispatch, const double* __restrict__ raw_re,
                  const double* __restrict__ raw_im, std::size_t repeats,
                  std::size_t n, double* __restrict__ mean_re,
                  double* __restrict__ mean_im,
                  double* __restrict__ noise_var) {
    PRESS_EXPECTS(repeats >= 2,
                  "noise estimation needs at least two repetitions");
    const double count = static_cast<double>(repeats);
#pragma GCC ivdep
    for (std::size_t k = 0; k < n; ++k) {
        mean_re[k] = 0.0;
        mean_im[k] = 0.0;
        noise_var[k] = 0.0;
    }
    for (std::size_t r = 0; r < repeats; ++r) {
        const double* __restrict__ rr = raw_re + r * n;
        const double* __restrict__ ri = raw_im + r * n;
#pragma GCC ivdep
        for (std::size_t k = 0; k < n; ++k) {
            mean_re[k] += rr[k] / count;
            mean_im[k] += ri[k] / count;
        }
    }
    for (std::size_t r = 0; r < repeats; ++r) {
        const double* __restrict__ rr = raw_re + r * n;
        const double* __restrict__ ri = raw_im + r * n;
#pragma GCC ivdep
        for (std::size_t k = 0; k < n; ++k) {
            const double dre = rr[k] - mean_re[k];
            const double dim = ri[k] - mean_im[k];
            noise_var[k] += (dre * dre + dim * dim) / (count - 1.0);
        }
    }
}

void snr_db_into(Dispatch, const double* mean_re, const double* mean_im,
                 const double* noise_var, std::size_t n, double cap_db,
                 double floor_db, double* out) {
    PRESS_EXPECTS(floor_db < cap_db, "floor must sit below the cap");
    for (std::size_t k = 0; k < n; ++k)
        out[k] = snr_db_value(mean_re[k], mean_im[k], noise_var[k], cap_db,
                              floor_db);
}

double snr_db_min(Dispatch, const double* mean_re, const double* mean_im,
                  const double* noise_var, std::size_t n, double cap_db,
                  double floor_db) {
    PRESS_EXPECTS(n > 0, "min of an empty span");
    PRESS_EXPECTS(floor_db < cap_db, "floor must sit below the cap");
    const auto value = [=](std::size_t i) {
        return snr_db_value(mean_re[i], mean_im[i], noise_var[i], cap_db,
                            floor_db);
    };
    return reduce_min(n, value);
}

double snr_db_mean(Dispatch, const double* mean_re,
                   const double* mean_im, const double* noise_var,
                   std::size_t n, double cap_db, double floor_db) {
    PRESS_EXPECTS(n > 0, "mean of an empty span");
    PRESS_EXPECTS(floor_db < cap_db, "floor must sit below the cap");
    const auto value = [=](std::size_t i) {
        return snr_db_value(mean_re[i], mean_im[i], noise_var[i], cap_db,
                            floor_db);
    };
    const double sum = reduce_sum(n, value);
    return sum / static_cast<double>(n);
}

void masked_gather(Dispatch, const double* src_re, const double* src_im,
                   const std::size_t* idx, std::size_t m, double* dst_re,
                   double* dst_im) {
    for (std::size_t i = 0; i < m; ++i) {
        dst_re[i] = src_re[idx[i]];
        dst_im[i] = src_im[idx[i]];
    }
}

void masked_accumulate(Dispatch d, const double* row_re,
                       const double* row_im, double* dst_re, double* dst_im,
                       const IndexRange* ranges, std::size_t num_ranges) {
    for (std::size_t r = 0; r < num_ranges; ++r) {
        const std::size_t o = ranges[r].offset;
        accumulate(d, row_re + o, row_im + o, dst_re + o, dst_im + o,
                   ranges[r].len);
    }
}

void masked_copy_accumulate(Dispatch d, const double* src_re,
                            const double* src_im, const double* row_re,
                            const double* row_im, double* dst_re,
                            double* dst_im, const IndexRange* ranges,
                            std::size_t num_ranges) {
    for (std::size_t r = 0; r < num_ranges; ++r) {
        const std::size_t o = ranges[r].offset;
        copy_accumulate(d, src_re + o, src_im + o, row_re + o, row_im + o,
                        dst_re + o, dst_im + o, ranges[r].len);
    }
}

void masked_ltf_mean_var(Dispatch, const double* raw_re,
                         const double* raw_im, std::size_t repeats,
                         std::size_t row_stride, const std::size_t* idx,
                         std::size_t m, double* mean_re, double* mean_im,
                         double* noise_var) {
    PRESS_EXPECTS(repeats >= 2,
                  "noise estimation needs at least two repetitions");
    // Per-tone arithmetic is element-wise across the dense axis (no
    // cross-tone reduction): the same structure as ltf_mean_var with
    // k := idx[i].
    const double count = static_cast<double>(repeats);
    for (std::size_t i = 0; i < m; ++i) {
        mean_re[i] = 0.0;
        mean_im[i] = 0.0;
        noise_var[i] = 0.0;
    }
    for (std::size_t r = 0; r < repeats; ++r) {
        const double* rr = raw_re + r * row_stride;
        const double* ri = raw_im + r * row_stride;
        for (std::size_t i = 0; i < m; ++i) {
            mean_re[i] += rr[idx[i]] / count;
            mean_im[i] += ri[idx[i]] / count;
        }
    }
    for (std::size_t r = 0; r < repeats; ++r) {
        const double* rr = raw_re + r * row_stride;
        const double* ri = raw_im + r * row_stride;
        for (std::size_t i = 0; i < m; ++i) {
            const double dre = rr[idx[i]] - mean_re[i];
            const double dim = ri[idx[i]] - mean_im[i];
            noise_var[i] += (dre * dre + dim * dim) / (count - 1.0);
        }
    }
}

double masked_snr_db_min(Dispatch, const double* mean_re,
                         const double* mean_im, const double* noise_var,
                         const std::size_t* idx, std::size_t m,
                         double cap_db, double floor_db) {
    PRESS_EXPECTS(m > 0, "min of an empty mask");
    PRESS_EXPECTS(floor_db < cap_db, "floor must sit below the cap");
    const auto value = [=](std::size_t i) {
        const std::size_t k = idx[i];
        return snr_db_value(mean_re[k], mean_im[k], noise_var[k], cap_db,
                            floor_db);
    };
    return reduce_min(m, value);
}

double masked_snr_db_mean(Dispatch, const double* mean_re,
                          const double* mean_im, const double* noise_var,
                          const std::size_t* idx, std::size_t m,
                          double cap_db, double floor_db) {
    PRESS_EXPECTS(m > 0, "mean of an empty mask");
    PRESS_EXPECTS(floor_db < cap_db, "floor must sit below the cap");
    const auto value = [=](std::size_t i) {
        const std::size_t k = idx[i];
        return snr_db_value(mean_re[k], mean_im[k], noise_var[k], cap_db,
                            floor_db);
    };
    const double sum = reduce_sum(m, value);
    return sum / static_cast<double>(m);
}

double effective_snr_db(Dispatch, const double* snr_db, std::size_t n) {
    PRESS_EXPECTS(n > 0, "empty SNR profile");
    const auto value = [snr_db](std::size_t i) {
        return std::log2(1.0 + db_to_linear(snr_db[i]));
    };
    const double acc = reduce_sum(n, value);
    const double mean_bits = acc / static_cast<double>(n);
    return linear_to_db(std::pow(2.0, mean_bits) - 1.0);
}

}  // namespace press::util::kernels
