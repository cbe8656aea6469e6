// Shared plumbing of the cyclebench binary: arguments, seeds, timing,
// order statistics, host diagnostics and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Runs only the thread-count determinism check of a search workload.
    bool selftest = false;
};

/// Every input of a run hangs off the workload seed: stream `k` of seed
/// `seed` is a splitmix64 mix, so scene seeds, cycle rng seeds and the
/// request mix never share a stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample (the maximum below eleven samples). `percentile` is the
/// share of samples at or below it.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

/// One reported metric, printed as a line and in the final JSON object.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  ///< printed beside the value; never in the JSON
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Lines printed before the metrics: diagnostics that never gate.
    std::vector<std::string> info;

    void add(std::string name, double value, std::string unit,
             std::string note = {});
    void fail_check(const std::string& why);
};

/// Share of CPU time the hypervisor stole between two snapshots of the
/// aggregate line of /proc/stat.
struct CpuTimes {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// Milliseconds of a fixed single-threaded job in a child process (a
/// dependent integer chain, then a fresh 16 MiB buffer faulted in and
/// streamed four times): a yardstick of host speed that moves with
/// co-tenant load on shared cores and the memory bus, which steal time
/// does not show. The child keeps the buffer out of this process's RSS.
double host_probe_ms();

/// Peak resident set of this process (VmHWM), MiB.
double self_peak_rss_mib();

std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Workload entry points.
bool is_search_workload(const std::string& name);
Result run_search_workload(const Args& args);
Result run_pressd_workload(const Args& args, const std::string& pressd_path);

}  // namespace perfbench
