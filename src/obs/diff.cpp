#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace press::obs {

namespace {

/// Manifest fields that must match for counters to be comparable at all.
/// `scenario` is also strict identity but compared separately as a
/// comma-separated scene-token set, so a run that *adds* a scene stays
/// comparable (new-scene counters warn like any new counter) while a run
/// that *drops* a baseline scene fails outright.
constexpr const char* kStrictIdentity[] = {"press_threads", "seed"};
/// Manifest fields whose mismatch only softens counter failures to
/// warnings (toolchain changes may legitimately shift FP trajectories).
constexpr const char* kAdvisoryIdentity[] = {"build_type", "compiler",
                                             "sanitize"};

std::string value_str(const Json& v) {
    if (v.is_string()) return v.as_string();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v.as_double());
    return buf;
}

double rel_drift_pct(double base, double current) {
    const double denom = std::max(std::fabs(base), 1.0);
    return std::fabs(current - base) / denom * 100.0;
}

/// Splits a scenario id into its comma-separated scene tokens (empty
/// tokens dropped). A single-token scenario degenerates to the old exact
/// string comparison.
std::vector<std::string> scenario_tokens(const std::string& scenario) {
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= scenario.size()) {
        const std::size_t comma = scenario.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? scenario.size() : comma;
        if (end > start) tokens.push_back(scenario.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return tokens;
}

bool contains_token(const std::vector<std::string>& tokens,
                    const std::string& token) {
    return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

}  // namespace

Json make_baseline(const Json& telemetry) {
    Json::Object manifest;
    const Json& src = telemetry.at("manifest");
    for (const char* key : kStrictIdentity)
        manifest.emplace(key, src.at(key));
    manifest.emplace("scenario", src.at("scenario"));
    for (const char* key : kAdvisoryIdentity)
        manifest.emplace(key, src.at(key));

    Json::Object root;
    root.emplace("schema", "press.bench_baseline/v1");
    root.emplace("manifest", std::move(manifest));
    root.emplace("counters",
                 telemetry.at("metrics").at("counters"));
    root.emplace("gauges", telemetry.at("metrics").at("gauges"));
    return Json(std::move(root));
}

DiffResult diff_telemetry(const Json& baseline, const Json& current) {
    DiffResult result;
    if (!baseline.is_object() || !baseline.contains("schema") ||
        !baseline.at("schema").is_string() ||
        baseline.at("schema").as_string() != "press.bench_baseline/v1") {
        result.comparable = false;
        result.failures.push_back(
            "baseline schema is not \"press.bench_baseline/v1\"");
        return result;
    }
    if (!current.is_object() || !current.contains("manifest") ||
        !current.contains("metrics")) {
        result.comparable = false;
        result.failures.push_back(
            "current document is not a telemetry export");
        return result;
    }

    const Json& base_manifest = baseline.at("manifest");
    const Json& cur_manifest = current.at("manifest");
    for (const char* key : kStrictIdentity) {
        if (!base_manifest.contains(key) || !cur_manifest.contains(key) ||
            !(value_str(base_manifest.at(key)) ==
              value_str(cur_manifest.at(key)))) {
            result.comparable = false;
            result.failures.push_back(
                std::string("manifest.") + key +
                " differs from the baseline — runs are not comparable");
        }
    }
    // Scenario identity by scene-token set: every baseline scene must
    // still run (a missing one means its counters silently vanish —
    // incomparable), while scenes added since the baseline only warn so a
    // bench can grow without first invalidating its own gate.
    if (!base_manifest.contains("scenario") ||
        !cur_manifest.contains("scenario")) {
        result.comparable = false;
        result.failures.push_back(
            "manifest.scenario differs from the baseline — runs are not "
            "comparable");
    } else {
        const std::vector<std::string> base_scenes =
            scenario_tokens(value_str(base_manifest.at("scenario")));
        const std::vector<std::string> cur_scenes =
            scenario_tokens(value_str(cur_manifest.at("scenario")));
        for (const std::string& scene : base_scenes) {
            if (!contains_token(cur_scenes, scene)) {
                result.comparable = false;
                result.failures.push_back(
                    "manifest.scenario scene \"" + scene +
                    "\" present in the baseline but missing from this "
                    "run — runs are not comparable");
            }
        }
        for (const std::string& scene : cur_scenes)
            if (!contains_token(base_scenes, scene))
                result.warnings.push_back(
                    "manifest.scenario scene \"" + scene +
                    "\" is new since the baseline (re-snapshot to gate "
                    "its counters)");
    }
    if (!result.comparable) return result;

    bool soften = false;
    for (const char* key : kAdvisoryIdentity) {
        if (base_manifest.contains(key) && cur_manifest.contains(key) &&
            value_str(base_manifest.at(key)) !=
                value_str(cur_manifest.at(key))) {
            soften = true;
            result.warnings.push_back(
                std::string("manifest.") + key + " changed (\"" +
                value_str(base_manifest.at(key)) + "\" -> \"" +
                value_str(cur_manifest.at(key)) +
                "\"); counter drift reported as warnings only");
        }
    }
    auto flag = [&](std::string message) {
        (soften ? result.warnings : result.failures)
            .push_back(std::move(message));
    };

    const Json& base_counters = baseline.at("counters");
    const Json& cur_counters = current.at("metrics").at("counters");
    for (const auto& [name, base_value] : base_counters.as_object()) {
        if (!cur_counters.contains(name)) {
            flag("counter " + name +
                 " present in the baseline but missing from this run");
            continue;
        }
        const double base = base_value.as_double();
        const double cur = cur_counters.at(name).as_double();
        const double drift = rel_drift_pct(base, cur);
        if (drift > kDiffTolerancePct) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "counter %s drifted %.2f%% (baseline %.0f, "
                          "current %.0f, tolerance %.2f%%)",
                          name.c_str(), drift, base, cur, kDiffTolerancePct);
            flag(buf);
        }
    }
    for (const auto& [name, value] : cur_counters.as_object())
        if (!base_counters.contains(name))
            result.warnings.push_back(
                "counter " + name +
                " is new since the baseline (re-snapshot to gate it)");

    if (baseline.contains("gauges")) {
        const Json& base_gauges = baseline.at("gauges");
        const Json& cur_gauges = current.at("metrics").at("gauges");
        for (const auto& [name, base_value] : base_gauges.as_object()) {
            if (!cur_gauges.contains(name)) {
                result.warnings.push_back("gauge " + name +
                                          " missing from this run");
                continue;
            }
            const double base = base_value.as_double();
            const double cur = cur_gauges.at(name).as_double();
            const double drift = rel_drift_pct(base, cur);
            if (drift > kDiffTolerancePct) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "gauge %s drifted %.2f%% (baseline %g, "
                              "current %g) — wall-clock noise, not gated",
                              name.c_str(), drift, base, cur);
                result.warnings.push_back(buf);
            }
        }
    }
    return result;
}

}  // namespace press::obs
