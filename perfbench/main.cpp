// cyclebench — the repository benchmark's measuring binary.
//
//   cyclebench --workload NAME --seed N --seconds S --trace 0|1
//              [--pressd PATH] [--selftest]
//
// --pressd names the daemon binary pressd_open_loop starts; --selftest
// runs only a search workload's thread-determinism check.
//
// Workloads: massive_vote, wideband_masked, multiuser_maxmin (closed-loop
// optimize cycles in process) and pressd_open_loop (the pressd daemon over
// its socket). --trace 0 prints the end-to-end metrics; --trace 1 runs the
// traced variant and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// METRICS.md in this directory defines every name.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k * 0xD1B54A32D192ED03ull +
                      0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Fewer than eleven samples leave no percentile with ten beyond it;
    // the maximum is the honest tail then.
    const std::size_t idx = n > 10 ? n - 11 : n - 1;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) /
                   static_cast<double>(n);
    return t;
}

void Result::add(std::string name, double value, std::string unit,
                 std::string note) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Result::fail_check(const std::string& why) {
    if (correct) info.push_back("CHECK FAILED: " + why);
    correct = false;
}

CpuTimes read_cpu_times() {
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
    std::istringstream fields(line.substr(4));
    std::uint64_t v = 0;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice, so it is not added again).
    for (int i = 0; i < 8 && (fields >> v); ++i) {
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
    if (b.total <= a.total) return 0.0;
    return 100.0 * static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

double host_probe_ms() {
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < 5000000; ++i)
            x = (x * 6364136223846793005ull + 1442695040888963407ull) ^
                (x >> 29);
        std::vector<std::uint64_t> buffer(std::size_t{2} << 20, 1);
        for (int pass = 0; pass < 4; ++pass)
            for (const std::uint64_t v : buffer) x += v;
        static volatile std::uint64_t sink;
        sink = x;
        ::_exit(0);
    }
    if (pid < 0) return 0.0;
    ::waitpid(pid, nullptr, 0);
    return seconds_since(t0) * 1e3;
}

double self_peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string format(const char* fmt, ...) {
    char buffer[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, ap);
    va_end(ap);
    return buffer;
}

}  // namespace perfbench

namespace {

using perfbench::Args;
using perfbench::Result;

bool parse(int argc, char** argv, Args& args, std::string& pressd) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (v == nullptr) {
            std::fprintf(stderr, "cyclebench: %s needs a value\n", a.c_str());
            return false;
        }
        ++i;
        if (a == "--workload") args.workload = v;
        else if (a == "--seed") args.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") args.seconds = std::strtod(v, nullptr);
        else if (a == "--trace") args.trace = std::strcmp(v, "0") != 0;
        else if (a == "--pressd") pressd = v;
        else {
            std::fprintf(stderr, "cyclebench: unknown flag %s\n", a.c_str());
            return false;
        }
    }
    if (args.workload.empty() || !(args.seconds > 0.0)) {
        std::fprintf(stderr, "cyclebench: --workload and --seconds > 0 "
                             "are required\n");
        return false;
    }
    return true;
}

void print(const Args& args, Result& r) {
    for (const std::string& line : r.info)
        std::printf("# %s\n", line.c_str());
    std::printf("# %s seed=%llu trace=%d: attempted=%llu failed=%llu "
                "correct=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "true" : "false");
    for (const perfbench::Metric& m : r.metrics) {
        std::printf("%-40s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    bool finite = true;
    std::string body;
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric& m = r.metrics[i];
        double v = m.value;
        if (!std::isfinite(v)) {
            finite = false;
            v = 0.0;
        }
        body += perfbench::format("%s\"%s\": {\"value\": %.17g, "
                                  "\"unit\": \"%s\"}",
                                  i == 0 ? "" : ", ", m.name.c_str(), v,
                                  m.unit.c_str());
    }
    if (!finite) r.fail_check("a metric is not finite");
    json += r.correct ? "true" : "false";
    json += perfbench::format(", \"attempted\": %llu, \"failed\": %llu, "
                              "\"metrics\": {",
                              static_cast<unsigned long long>(r.attempted),
                              static_cast<unsigned long long>(r.failed));
    json += body + "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    std::string pressd;
    if (!parse(argc, argv, args, pressd)) return 2;
    try {
        const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
        const double probe0 = perfbench::host_probe_ms();
        Result r;
        if (perfbench::is_search_workload(args.workload)) {
            r = perfbench::run_search_workload(args);
        } else if (args.workload == "pressd_open_loop" && !pressd.empty()) {
            r = perfbench::run_pressd_workload(args, pressd);
        } else {
            std::fprintf(stderr,
                         "cyclebench: unknown workload %s (pressd_open_loop "
                         "needs --pressd PATH)\n",
                         args.workload.c_str());
            return 2;
        }
        if (r.attempted == 0) {
            std::fprintf(stderr, "cyclebench: nothing was attempted\n");
            return 1;
        }
        // Noise diagnostics beside every run; they never gate.
        const double probe1 = perfbench::host_probe_ms();
        const double steal =
            perfbench::steal_pct(cpu0, perfbench::read_cpu_times());
        r.info.push_back(perfbench::format(
            "host.steal_pct=%.3f host.probe_ms=%.3f (start %.3f, end %.3f)",
            steal, 0.5 * (probe0 + probe1), probe0, probe1));
        if (args.trace) {
            r.add("host.steal_pct", steal, "%");
            r.add("host.probe_ms", 0.5 * (probe0 + probe1), "ms",
                  "fixed job at the run's start and end");
        }
        print(args, r);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cyclebench: %s\n", e.what());
        return 1;
    }
}
