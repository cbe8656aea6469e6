#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>

#include "obs/perfetto.hpp"
#include "obs/trace.hpp"

namespace press::obs {

namespace {

Json manifest_json(const RunManifest& m) {
    Json::Object obj;
    obj.emplace("git_describe", m.git_describe);
    obj.emplace("build_type", m.build_type);
    obj.emplace("compiler", m.compiler);
    obj.emplace("cxx_flags", m.cxx_flags);
    obj.emplace("sanitize", m.sanitize);
    obj.emplace("press_threads", m.press_threads);
    obj.emplace("seed", m.seed);
    obj.emplace("scenario", m.scenario);
    return Json(std::move(obj));
}

Json metrics_json(const MetricsRegistry::Snapshot& snap) {
    Json::Object counters;
    for (const auto& [name, value] : snap.counters)
        counters.emplace(name, value);
    Json::Object gauges;
    for (const auto& [name, value] : snap.gauges)
        gauges.emplace(name, value);
    Json::Object histograms;
    for (const auto& h : snap.histograms) {
        Json::Object entry;
        Json::Array bounds;
        for (double b : h.bounds) bounds.emplace_back(b);
        Json::Array counts;
        for (std::uint64_t c : h.counts) counts.emplace_back(c);
        entry.emplace("bounds", std::move(bounds));
        entry.emplace("counts", std::move(counts));
        entry.emplace("count", h.count);
        entry.emplace("sum", h.sum);
        histograms.emplace(h.name, std::move(entry));
    }
    Json::Object metrics;
    metrics.emplace("counters", std::move(counters));
    metrics.emplace("gauges", std::move(gauges));
    metrics.emplace("histograms", std::move(histograms));
    return Json(std::move(metrics));
}

Json series_json(const MetricsRegistry::Snapshot& snap) {
    Json::Object series;
    for (const auto& s : snap.series) {
        Json::Object entry;
        Json::Array points;
        for (double v : s.values) points.emplace_back(v);
        entry.emplace("points", std::move(points));
        entry.emplace("length", s.total_length);
        series.emplace(s.name, std::move(entry));
    }
    return Json(std::move(series));
}

Json spans_json(const std::vector<SpanRecord>& spans) {
    Json::Array arr;
    for (const SpanRecord& s : spans) {
        Json::Object entry;
        entry.emplace("name", s.name);
        entry.emplace("thread", s.thread);
        entry.emplace("depth", s.depth);
        entry.emplace("seq", s.seq);
        entry.emplace("trace_id", s.trace_id);
        entry.emplace("span_id", s.span_id);
        entry.emplace("parent_span", s.parent_span);
        entry.emplace("adopted", s.adopted);
        entry.emplace("start_us",
                      static_cast<double>(s.start_ns) / 1000.0);
        entry.emplace("wall_us", static_cast<double>(s.wall_ns) / 1000.0);
        if (s.has_sim) {
            entry.emplace("sim_start_s", s.sim_start_s);
            entry.emplace("sim_elapsed_s", s.sim_elapsed_s);
        }
        arr.emplace_back(std::move(entry));
    }
    return Json(std::move(arr));
}

}  // namespace

Json build_telemetry(const RunManifest& manifest, bool drain_spans) {
    // Read the drop count before draining — flush resets it.
    const std::uint64_t dropped = drain_spans ? spans_dropped() : 0;
    const std::vector<SpanRecord> spans =
        drain_spans ? flush_spans() : std::vector<SpanRecord>{};
    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::global().snapshot();

    Json::Object root;
    root.emplace("schema", manifest.schema);
    root.emplace("manifest", manifest_json(manifest));
    root.emplace("metrics", metrics_json(snap));
    root.emplace("series", series_json(snap));
    root.emplace("spans", spans_json(spans));
    root.emplace("spans_dropped", dropped);
    return Json(std::move(root));
}

std::string render_table(const Json& telemetry) {
    std::string out;
    char line[256];

    const auto& manifest = telemetry.at("manifest").as_object();
    out += "== run manifest ==\n";
    for (const auto& [key, value] : manifest) {
        std::snprintf(line, sizeof line, "  %-14s %s\n", key.c_str(),
                      value.is_string()
                          ? value.as_string().c_str()
                          : std::to_string(static_cast<long long>(
                                               value.as_double()))
                                .c_str());
        out += line;
    }

    const auto& metrics = telemetry.at("metrics").as_object();
    const auto& counters = metrics.at("counters").as_object();
    if (!counters.empty()) out += "== counters ==\n";
    for (const auto& [name, value] : counters) {
        std::snprintf(line, sizeof line, "  %-44s %12.0f\n", name.c_str(),
                      value.as_double());
        out += line;
    }
    const auto& gauges = metrics.at("gauges").as_object();
    if (!gauges.empty()) out += "== gauges ==\n";
    for (const auto& [name, value] : gauges) {
        std::snprintf(line, sizeof line, "  %-44s %12.4g\n", name.c_str(),
                      value.as_double());
        out += line;
    }
    const auto& histograms = metrics.at("histograms").as_object();
    if (!histograms.empty()) out += "== histograms ==\n";
    for (const auto& [name, h] : histograms) {
        const double count = h.at("count").as_double();
        const double sum = h.at("sum").as_double();
        std::snprintf(line, sizeof line,
                      "  %-44s n=%-8.0f mean=%.4g\n", name.c_str(), count,
                      count > 0 ? sum / count : 0.0);
        out += line;
    }
    const auto& series = telemetry.at("series").as_object();
    if (!series.empty()) out += "== series ==\n";
    for (const auto& [name, s] : series) {
        const auto& points = s.at("points").as_array();
        const double last =
            points.empty() ? 0.0 : points.back().as_double();
        std::snprintf(line, sizeof line,
                      "  %-44s len=%-6.0f last=%.4g\n", name.c_str(),
                      s.at("length").as_double(), last);
        out += line;
    }

    const auto& spans = telemetry.at("spans").as_array();
    if (!spans.empty()) out += "== spans (completion order) ==\n";
    for (const auto& s : spans) {
        const auto& obj = s.as_object();
        const int depth =
            static_cast<int>(obj.at("depth").as_double());
        std::string sim;
        if (obj.count("sim_elapsed_s") > 0) {
            char buf[48];
            std::snprintf(buf, sizeof buf, "  sim=%.4gs",
                          obj.at("sim_elapsed_s").as_double());
            sim = buf;
        }
        std::snprintf(line, sizeof line, "  t%.0f %*s%-40s %10.1f us%s\n",
                      obj.at("thread").as_double(), depth * 2, "",
                      obj.at("name").as_string().c_str(),
                      obj.at("wall_us").as_double(), sim.c_str());
        out += line;
    }
    return out;
}

namespace {

std::optional<std::string> write_document(const std::string& path,
                                          const Json& document) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return std::nullopt;
    const std::string doc = document.dump();
    const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (written != doc.size()) return std::nullopt;
    return path;
}

}  // namespace

std::optional<std::string> write_telemetry(const std::string& name,
                                           const RunManifest& manifest) {
    if (!enabled()) return std::nullopt;
    return write_document(export_dir() + "/telemetry_" + name + ".json",
                          build_telemetry(manifest));
}

RunExportPaths write_run_exports(const std::string& name,
                                 const RunManifest& manifest) {
    RunExportPaths paths;
    if (!enabled()) return paths;
    const Json telemetry = build_telemetry(manifest);
    paths.telemetry = write_document(
        export_dir() + "/telemetry_" + name + ".json", telemetry);
    paths.trace = write_document(
        export_dir() + "/trace_" + name + ".json",
        perfetto_export(telemetry));
    return paths;
}

namespace {

bool is_uint(const Json& v) {
    return v.is_number() && v.as_double() >= 0.0 &&
           v.as_double() == std::floor(v.as_double());
}

std::string check_number_object(const Json& obj, const char* where) {
    for (const auto& [name, value] : obj.as_object())
        if (!value.is_number())
            return std::string(where) + "." + name + " is not a number";
    return "";
}

}  // namespace

std::string validate_telemetry(const Json& t) {
    if (!t.is_object()) return "document is not an object";
    static const char* kRootKeys[] = {"schema",  "manifest", "metrics",
                                      "series",  "spans",    "spans_dropped"};
    for (const char* key : kRootKeys)
        if (!t.contains(key))
            return std::string("missing root key \"") + key + "\"";
    for (const auto& [key, value] : t.as_object()) {
        const bool known =
            std::any_of(std::begin(kRootKeys), std::end(kRootKeys),
                        [&](const char* k) { return key == k; });
        if (!known)
            return "unknown root key \"" + key + "\" (schema drift)";
    }

    if (!t.at("schema").is_string() ||
        t.at("schema").as_string() != "press.telemetry/v2")
        return "schema is not \"press.telemetry/v2\"";

    const Json& manifest = t.at("manifest");
    if (!manifest.is_object()) return "manifest is not an object";
    static const std::pair<const char*, bool> kManifestKeys[] = {
        // name, is_string (else unsigned number)
        {"git_describe", true}, {"build_type", true},
        {"compiler", true},     {"cxx_flags", true},
        {"sanitize", true},     {"press_threads", false},
        {"seed", false},        {"scenario", true}};
    for (const auto& [key, is_string] : kManifestKeys) {
        if (!manifest.contains(key))
            return std::string("manifest missing \"") + key + "\"";
        const Json& v = manifest.at(key);
        if (is_string ? !v.is_string() : !is_uint(v))
            return std::string("manifest.") + key + " has the wrong type";
    }
    if (manifest.as_object().size() != std::size(kManifestKeys))
        return "manifest carries unknown keys (schema drift)";
    if (manifest.at("press_threads").as_double() < 1)
        return "manifest.press_threads must be >= 1";

    const Json& metrics = t.at("metrics");
    if (!metrics.is_object()) return "metrics is not an object";
    for (const char* key : {"counters", "gauges", "histograms"})
        if (!metrics.contains(key) || !metrics.at(key).is_object())
            return std::string("metrics.") + key + " missing or not an object";
    for (const auto& [name, value] :
         metrics.at("counters").as_object())
        if (!is_uint(value))
            return "metrics.counters." + name +
                   " is not a non-negative integer";
    if (std::string err =
            check_number_object(metrics.at("gauges"), "metrics.gauges");
        !err.empty())
        return err;
    for (const auto& [name, h] : metrics.at("histograms").as_object()) {
        const std::string where = "metrics.histograms." + name;
        if (!h.is_object()) return where + " is not an object";
        for (const char* key : {"bounds", "counts", "count", "sum"})
            if (!h.contains(key)) return where + " missing \"" + key + "\"";
        if (!h.at("bounds").is_array() || !h.at("counts").is_array())
            return where + ".bounds/.counts must be arrays";
        const auto& bounds = h.at("bounds").as_array();
        const auto& counts = h.at("counts").as_array();
        if (counts.size() != bounds.size() + 1)
            return where + ": counts must have bounds+1 entries";
        double prev = -std::numeric_limits<double>::infinity();
        for (const Json& b : bounds) {
            if (!b.is_number() || b.as_double() < prev)
                return where + ".bounds must be ascending numbers";
            prev = b.as_double();
        }
        double total = 0.0;
        for (const Json& c : counts) {
            if (!is_uint(c)) return where + ".counts must be integers";
            total += c.as_double();
        }
        if (!is_uint(h.at("count")) ||
            h.at("count").as_double() != total)
            return where + ".count must equal the bucket total";
        if (!h.at("sum").is_number()) return where + ".sum must be a number";
    }

    const Json& series = t.at("series");
    if (!series.is_object()) return "series is not an object";
    for (const auto& [name, s] : series.as_object()) {
        if (!s.is_object() || !s.contains("points") ||
            !s.contains("length") || !s.at("points").is_array() ||
            !is_uint(s.at("length")))
            return "series." + name +
                   " must be {points: [...], length: n}";
        const auto& points = s.at("points").as_array();
        if (s.at("length").as_double() <
            static_cast<double>(points.size()))
            return "series." + name + ".length below the point count";
        for (const Json& p : points)
            if (!p.is_number())
                return "series." + name + ".points must be numbers";
    }

    const Json& spans = t.at("spans");
    if (!spans.is_array()) return "spans is not an array";
    for (const Json& s : spans.as_array()) {
        if (!s.is_object()) return "span entry is not an object";
        if (!s.contains("name") || !s.at("name").is_string())
            return "span missing string \"name\"";
        for (const char* key : {"thread", "depth", "seq", "trace_id",
                                "span_id", "parent_span"})
            if (!s.contains(key) || !is_uint(s.at(key)))
                return std::string("span \"") + s.at("name").as_string() +
                       "\" missing integer \"" + key + "\"";
        if (s.at("span_id").as_double() < 1 ||
            s.at("trace_id").as_double() < 1)
            return std::string("span \"") + s.at("name").as_string() +
                   "\" span_id/trace_id must be >= 1";
        if (!s.contains("adopted") || !s.at("adopted").is_bool())
            return std::string("span \"") + s.at("name").as_string() +
                   "\" missing bool \"adopted\"";
        for (const char* key : {"start_us", "wall_us"})
            if (!s.contains(key) || !s.at(key).is_number())
                return std::string("span \"") + s.at("name").as_string() +
                       "\" missing number \"" + key + "\"";
        const bool has_start = s.contains("sim_start_s");
        const bool has_elapsed = s.contains("sim_elapsed_s");
        if (has_start != has_elapsed)
            return "span sim_start_s/sim_elapsed_s must appear together";
        if (has_start && (!s.at("sim_start_s").is_number() ||
                          !s.at("sim_elapsed_s").is_number()))
            return "span sim fields must be numbers";
    }

    if (!is_uint(t.at("spans_dropped")))
        return "spans_dropped is not a non-negative integer";
    return "";
}

}  // namespace press::obs
