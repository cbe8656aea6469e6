// CI regression gate: diffs a fresh telemetry export against a committed
// baseline (bench/baselines/*.json, schema press.bench_baseline/v1).
//
//   $ bench_diff <baseline.json> <telemetry.json>
//
// Deterministic counters that drift beyond 2% FAIL the run (exit 1);
// wall-clock gauges only ever WARN — they move with the host.
// Manifest identity is checked first: a press_threads/seed/scenario
// mismatch means the runs are not comparable at all (exit 1), while a
// build_type/compiler/sanitize mismatch softens counter failures to
// warnings.
//
// To refresh a baseline after an intentional behavior change, pass
// --write-baseline <out.json>: the telemetry is distilled with
// obs::make_baseline and written instead of diffed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace {

std::optional<press::obs::Json> load_json(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path);
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        return press::obs::Json::parse(buffer.str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: parse error: %s\n", path, e.what());
        return std::nullopt;
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <telemetry.json>\n"
                 "       bench_diff --write-baseline <out.json> "
                 "<telemetry.json>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::strcmp(argv[1], "--write-baseline") == 0) {
        if (argc != 4) return usage();
        const auto telemetry = load_json(argv[3]);
        if (!telemetry) return 1;
        const press::obs::Json baseline =
            press::obs::make_baseline(*telemetry);
        std::ofstream out(argv[2]);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write\n", argv[2]);
            return 1;
        }
        out << baseline.dump() << "\n";
        std::printf("%s: baseline written from %s\n", argv[2], argv[3]);
        return out.good() ? 0 : 1;
    }

    if (argc != 3) return usage();

    const auto baseline = load_json(argv[1]);
    const auto current = load_json(argv[2]);
    if (!baseline || !current) return 1;

    const press::obs::DiffResult result =
        press::obs::diff_telemetry(*baseline, *current);
    for (const std::string& w : result.warnings)
        std::printf("WARN  %s\n", w.c_str());
    for (const std::string& f : result.failures)
        std::printf("FAIL  %s\n", f.c_str());
    if (!result.comparable) {
        std::printf("bench_diff: runs are not comparable\n");
        return 1;
    }
    if (!result.ok()) {
        std::printf(
            "bench_diff: %zu regression(s) beyond %.2f%% tolerance\n",
            result.failures.size(), press::obs::kDiffTolerancePct);
        return 1;
    }
    std::printf("bench_diff: ok (%zu warning(s), tolerance %.2f%%)\n",
                result.warnings.size(), press::obs::kDiffTolerancePct);
    return 0;
}
