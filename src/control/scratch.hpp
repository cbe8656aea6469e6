// Per-worker evaluation scratch: the zero-allocation contract's memory.
//
// Every BatchEvaluator worker owns one EvalScratch for its whole
// lifetime. Score callbacks write candidate responses, sounding draws and
// derived SNR spans into it instead of allocating; all buffers grow to
// their steady-state size during the first few candidates (tracked in
// grow_events / bytes_reserved) and are only ever resized within
// capacity afterwards, so a steady-state sweep performs zero heap
// allocations per candidate. perf_snapshot gates on exactly that: the
// arena stats plus a global operator-new counter must both stay flat
// across the timed sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "control/objective.hpp"
#include "press/config.hpp"
#include "util/kernels.hpp"

namespace press::control {

struct EvalScratch {
    /// Candidate response accumulator (split-complex).
    util::kernels::SplitVec h;
    /// Raw LTF sounding draws, [repeats x scored tones] row-major.
    std::vector<double> raw_re;
    std::vector<double> raw_im;
    /// Combined estimate and per-subcarrier noise variance / SNR.
    std::vector<double> mean_re;
    std::vector<double> mean_im;
    std::vector<double> noise_var;
    std::vector<double> snr_db;
    /// Per-read response accumulators of cache-backed scoring: one
    /// SplitVec per segment run a candidate assembles from
    /// core::MultiLinkCache (one link's segment, or a whole transmitter
    /// group). Sized once per worker, then reused.
    std::vector<util::kernels::SplitVec> group_h;
    /// Per-term utilities of a composite multi-link objective.
    std::vector<double> term_utility;
    /// Reused by the general (non-fused) objective path.
    Observation observation;
    /// Fault-distortion output (the distorted candidate configuration).
    surface::Config config;

    /// Arena accounting: how many times any buffer had to grow capacity,
    /// and the bytes those growths reserved. Flat counters in steady
    /// state == the zero-allocation contract holds.
    std::uint64_t grow_events = 0;
    std::size_t bytes_reserved = 0;

    /// resize() that tracks capacity growth. Shrinking or resizing within
    /// capacity never touches the heap.
    template <typename T>
    void resize_tracked(std::vector<T>& v, std::size_t n) {
        if (v.capacity() < n) {
            ++grow_events;
            bytes_reserved += (n - v.capacity()) * sizeof(T);
            v.reserve(n);
        }
        v.resize(n);
    }

    void resize_tracked(util::kernels::SplitVec& v, std::size_t n) {
        resize_tracked(v.re, n);
        resize_tracked(v.im, n);
    }
};

}  // namespace press::control
