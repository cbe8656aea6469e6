// Split-complex SoA kernels: the scoring pipeline's innermost loops.
//
// The factored channel cache turned candidate evaluation into a row-gather
// plus complex accumulation (src/core/link_cache.hpp); at smart-space
// scale that loop *is* the controller, so it has to vectorize. AoS
// std::complex<double> defeats that — the re/im interleave forces shuffle
// traffic — so the hot path stores split-complex structure-of-arrays
// (SplitVec: one contiguous double array per component) and runs these
// kernels over raw spans.
//
// The arithmetic is written over __restrict__ spans in blocks the
// compiler's auto-vectorizer maps onto whatever SIMD width the target
// has. Results must not depend on that width (a default build and a
// -march=native build give the same bits), which pins down two
// contracts:
//
//   1. Deterministic blocked reduction. Every reduction (min / mean /
//      abs2 sums) runs kLanes = 4 independent accumulators, lane j
//      folding elements j, j+4, j+8, ... (the layout a 4-wide vector
//      loop produces), combined at the end as
//          (lane0 ⊕ lane1) ⊕ (lane2 ⊕ lane3)
//      The width is fixed at 4 regardless of the hardware width so
//      results never depend on the build machine.
//   2. No FMA contraction. The build compiles with -ffp-contract=off
//      (top-level CMakeLists) so re*re + im*im is the same mul/mul/add
//      sequence at every vector width and under -march=native.
//
// Element-wise kernels (copy / accumulate / gather) have no reduction
// order at all, so they are bit-identical by construction.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace press::util::kernels {

/// The kernel flavor. One exists; every kernel keeps the parameter so
/// call sites stay stable, and ignores it.
enum class Dispatch { kNative };

/// The flavor to pass: always Dispatch::kNative.
constexpr Dispatch active() { return Dispatch::kNative; }

/// Fixed lane count of the blocked-reduction contract.
inline constexpr std::size_t kLanes = 4;

/// Split-complex vector: re[i] + j*im[i]. The two components are separate
/// contiguous arrays so element-wise kernels vectorize without shuffles.
/// resize() keeps capacity, so a reused scratch never re-allocates once
/// grown to its steady-state size.
struct SplitVec {
    std::vector<double> re;
    std::vector<double> im;

    std::size_t size() const { return re.size(); }
    void resize(std::size_t n) {
        re.resize(n);
        im.resize(n);
    }
    void assign_zero(std::size_t n) {
        re.assign(n, 0.0);
        im.assign(n, 0.0);
    }
};

/// dst = src (both components), n elements.
void copy(Dispatch d, const double* src_re, const double* src_im,
          double* dst_re, double* dst_im, std::size_t n);

/// dst += row (both components), n elements.
void accumulate(Dispatch d, const double* row_re, const double* row_im,
                double* dst_re, double* dst_im, std::size_t n);

/// dst = src + row (both components), n elements — the coordinate
/// delta's fused form. One pass over dst instead of copy() followed by
/// accumulate(); the per-element sum is the same single addition, so the
/// result is bit-identical to the two-step form.
/// dst must not alias src or row.
void copy_accumulate(Dispatch d, const double* src_re, const double* src_im,
                     const double* row_re, const double* row_im,
                     double* dst_re, double* dst_im, std::size_t n);

/// dst += sum of `num_rows` table rows: row r spans
/// table_re/_im[rows[r]*n .. rows[r]*n + n). Rows are added in index
/// order, so the result is bit-identical to calling accumulate() per row.
void gather_accumulate(Dispatch d, const double* table_re,
                       const double* table_im, const std::size_t* rows,
                       std::size_t num_rows, double* dst_re, double* dst_im,
                       std::size_t n);

/// SplitVec -> std::complex interleave and back (bridges to the AoS APIs
/// that remain on cold paths).
void interleave(const double* re, const double* im,
                std::complex<double>* out, std::size_t n);
void deinterleave(const std::complex<double>* in, double* re, double* im,
                  std::size_t n);

/// Blocked reductions over a real span (see the file comment for the
/// association contract). Empty spans are a precondition violation.
double min(Dispatch d, const double* x, std::size_t n);
double mean(Dispatch d, const double* x, std::size_t n);

/// Blocked min / mean of the squared magnitudes re[i]^2 + im[i]^2.
double abs2_min(Dispatch d, const double* re, const double* im,
                std::size_t n);
double abs2_mean(Dispatch d, const double* re, const double* im,
                 std::size_t n);

/// LTF repetition combining over a split [repeats x n] row-major block:
/// mean_re/_im[k] accumulate raw[r][k] / repeats in ascending r, then
/// noise_var[k] accumulates |raw[r][k] - mean[k]|^2 / (repeats - 1) —
/// exactly phy::combine_ltf_estimates' arithmetic, so the two agree
/// bitwise on the same raw estimates. repeats >= 2 required.
void ltf_mean_var(Dispatch d, const double* raw_re, const double* raw_im,
                  std::size_t repeats, std::size_t n, double* mean_re,
                  double* mean_im, double* noise_var);

/// Per-subcarrier estimated SNR in dB with the same clamping as
/// phy::ChannelEstimate::snr_db: sig = |mean[k]|^2; non-positive noise or
/// signal short-circuits to cap/floor, else clamp(10*log10(sig/var)).
void snr_db_into(Dispatch d, const double* mean_re, const double* mean_im,
                 const double* noise_var, std::size_t n, double cap_db,
                 double floor_db, double* out);

/// Fused log-SNR reductions: the blocked min / mean of the values
/// snr_db_into would produce, without materializing them. Bit-identical
/// to snr_db_into + min/mean over the stored span.
double snr_db_min(Dispatch d, const double* mean_re, const double* mean_im,
                  const double* noise_var, std::size_t n, double cap_db,
                  double floor_db);
double snr_db_mean(Dispatch d, const double* mean_re,
                   const double* mean_im, const double* noise_var,
                   std::size_t n, double cap_db, double floor_db);

// ---------------------------------------------------------------------
// Masked kernels: the wideband RU-mask pipeline (DESIGN.md §15).
//
// A preamble-puncturing mask selects a subset of the subcarrier axis.
// The masked kernels come in two shapes mirroring how the hot path uses
// them: RANGE kernels walk half-open [offset, offset+len) spans of the
// full-width axis (basis accumulation bounded to the tiles a mask
// touches), and INDEX kernels read through an ascending index list and
// produce densely packed outputs (masked scoring over num_active tones).
// The reduction kernels run their kLanes-blocked reduction over the
// DENSE masked axis i — not the raw subcarrier k — so a masked reduction
// is bit-identical to gathering the masked tones densely first and
// reducing with the unmasked kernel. Index lists must be strictly
// ascending (phy::RuMask::active_indices() order).
// ---------------------------------------------------------------------

/// Half-open span [offset, offset + len) of the full subcarrier axis.
struct IndexRange {
    std::size_t offset = 0;
    std::size_t len = 0;
};

/// Dense compaction: dst[i] = src[idx[i]] for i in [0, m), both
/// components.
void masked_gather(Dispatch d, const double* src_re, const double* src_im,
                   const std::size_t* idx, std::size_t m, double* dst_re,
                   double* dst_im);

/// dst += row over each range (both components), ranges in order. Per
/// touched subcarrier this is exactly one accumulate() addition, so a
/// range walk is bit-identical to a full accumulate() on the covered
/// subcarriers (untouched ones are left alone entirely).
void masked_accumulate(Dispatch d, const double* row_re,
                       const double* row_im, double* dst_re, double* dst_im,
                       const IndexRange* ranges, std::size_t num_ranges);

/// dst = src + row over each range (both components) — the fused
/// coordinate delta, tile-bounded. Bit-identical to per-span copy()
/// followed by masked_accumulate(); untouched outside the spans. dst
/// must not alias src or row.
void masked_copy_accumulate(Dispatch d, const double* src_re,
                            const double* src_im, const double* row_re,
                            const double* row_im, double* dst_re,
                            double* dst_im, const IndexRange* ranges,
                            std::size_t num_ranges);

/// ltf_mean_var over only the masked tones: repetition r's tone idx[i]
/// is read at raw_re/_im[r * row_stride + idx[i]] (row_stride >= the
/// full subcarrier width), outputs are DENSE length-m arrays. Per-tone
/// arithmetic matches ltf_mean_var exactly, so the dense outputs equal a
/// full-width ltf_mean_var followed by masked_gather of the results.
void masked_ltf_mean_var(Dispatch d, const double* raw_re,
                         const double* raw_im, std::size_t repeats,
                         std::size_t row_stride, const std::size_t* idx,
                         std::size_t m, double* mean_re, double* mean_im,
                         double* noise_var);

/// Fused masked log-SNR reductions: min / mean of the snr_db values of
/// tones idx[0..m), reading the FULL-width mean/noise arrays through the
/// index list. Bit-identical to masked_gather + snr_db_min/mean over the
/// dense result (the blocked reduction runs over the dense axis).
double masked_snr_db_min(Dispatch d, const double* mean_re,
                         const double* mean_im, const double* noise_var,
                         const std::size_t* idx, std::size_t m,
                         double cap_db, double floor_db);
double masked_snr_db_mean(Dispatch d, const double* mean_re,
                          const double* mean_im, const double* noise_var,
                          const std::size_t* idx, std::size_t m,
                          double cap_db, double floor_db);

/// Capacity-equivalent effective SNR of a per-subcarrier SNR profile in
/// dB: 2^(mean_k log2(1 + snr_k)) - 1 (phy::effective_snr_db's formula)
/// with the capacity sum folded through the blocked reduction. Versus the
/// serial reference loop (phy::effective_snr_db_reference) the blocked
/// association may differ in the last ulps, which the phy layer
/// documents.
double effective_snr_db(Dispatch d, const double* snr_db, std::size_t n);

}  // namespace press::util::kernels
