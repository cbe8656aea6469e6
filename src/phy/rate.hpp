// Rate adaptation: mapping channel quality to achievable bit rate.
//
// The paper's first motivation is that a "flatter" channel lets the OFDM
// modulation and coding "offer a greater bit rate, and hence throughput, to
// higher layers". This module quantifies that with an 802.11a/g-style MCS
// table: an effective SNR (capacity-averaged across subcarriers) selects
// the highest MCS whose threshold it clears.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "phy/modulation.hpp"

namespace press::phy {

/// One modulation-and-coding scheme.
struct Mcs {
    Modulation modulation;
    double code_rate;       ///< e.g. 0.5, 0.75
    double rate_mbps;       ///< PHY rate in a 20 MHz channel
    double min_snr_db;      ///< required effective SNR
    std::string name;
};

/// The 802.11a/g table (6..54 Mbps) with commonly used SNR thresholds.
const std::vector<Mcs>& mcs_table();

/// Capacity-equivalent effective SNR of a frequency-selective channel:
/// eff = 2^(mean_k log2(1 + snr_k)) - 1, in dB. This penalizes nulls the
/// way a real decoder does (hard subcarriers dominate coded performance).
/// Computed through util::kernels::effective_snr_db (the blocked-reduction
/// kernel, bit-identical at any SIMD width); the capacity fold's
/// association differs from the serial reference below by ulps at most,
/// never by an MCS decision at realistic widths.
double effective_snr_db(const std::vector<double>& per_subcarrier_snr_db);

/// The original serial capacity fold, kept as the reference the blocked
/// kernel is tested against (tests/test_wideband.cpp): plain left-to-right
/// accumulation, no blocking.
double effective_snr_db_reference(
    const std::vector<double>& per_subcarrier_snr_db);

/// Highest MCS whose threshold the effective SNR clears; nullopt when even
/// the lowest rate cannot be sustained.
std::optional<Mcs> select_mcs(double effective_snr_db);

/// Expected PHY throughput [Mbps] of a channel given its per-subcarrier SNR
/// profile (0 when no MCS is sustainable).
double expected_throughput_mbps(
    const std::vector<double>& per_subcarrier_snr_db);

}  // namespace press::phy
