// Observability subsystem: registry arithmetic, histogram bucket edges,
// span nesting and flush order, causal identity (trace/span/parent ids,
// cross-thread adoption, thread-count-independent span trees), the
// exporter round-trip against the documented press.telemetry/v2 schema,
// the Perfetto trace rendering, the flight recorder, the bench-diff
// regression gate, manifest determinism, and thread-count independence
// of the folded batch metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "control/batch.hpp"
#include "obs/diff.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "press/config.hpp"
#include "util/rng.hpp"

namespace press::obs {
namespace {

/// Every case runs with collection forced on and a clean slate; the
/// registry and span ring are process-global.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        set_enabled(true);
        MetricsRegistry::global().reset();
        (void)flush_spans();
    }
};

TEST_F(ObsTest, CounterArithmetic) {
    Counter& c = MetricsRegistry::global().counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // The registry hands back the same instance for the same name.
    EXPECT_EQ(&MetricsRegistry::global().counter("test.counter"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
    Gauge& g = MetricsRegistry::global().gauge("test.gauge");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.set(-7.0);  // set replaces, never accumulates
    EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST_F(ObsTest, HistogramBucketEdges) {
    Histogram h({1.0, 2.0, 4.0});
    h.observe(0.5);   // below first bound -> bucket 0
    h.observe(1.0);   // exactly on a bound counts in that bucket
    h.observe(1.5);   // bucket 1
    h.observe(2.0);   // edge again -> bucket 1
    h.observe(4.0);   // last bound -> bucket 2
    h.observe(4.001); // past the last bound -> overflow
    const std::vector<std::uint64_t> counts = h.bucket_counts();
    ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.001);
}

TEST_F(ObsTest, HistogramNonFiniteGoesToOverflow) {
    Histogram h({1.0});
    h.observe(std::numeric_limits<double>::quiet_NaN());
    h.observe(std::numeric_limits<double>::infinity());
    const std::vector<std::uint64_t> counts = h.bucket_counts();
    EXPECT_EQ(counts[0], 0u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);  // non-finite values never touch sum
}

TEST_F(ObsTest, HistogramRejectsUnsortedBounds) {
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, SeriesTruncatesButKeepsTrueLength) {
    Series s;
    for (std::size_t i = 0; i < Series::kMaxPoints + 5; ++i)
        s.append(static_cast<double>(i));
    EXPECT_EQ(s.values().size(), Series::kMaxPoints);
    EXPECT_EQ(s.total_length(), Series::kMaxPoints + 5);
    s.reset();
    s.append(std::vector<double>{1.0, 2.0, 3.0});
    EXPECT_EQ(s.values(), (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(s.total_length(), 3u);
}

TEST_F(ObsTest, SpanNestingAndFlushOrder) {
    {
        TraceSpan outer("outer");
        {
            TraceSpan inner("inner");
        }
        {
            TraceSpan second("second");
        }
    }
    const std::vector<SpanRecord> spans = flush_spans();
    ASSERT_EQ(spans.size(), 3u);
    // Children complete before their parent; seq numbers completions.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 1u);
    EXPECT_EQ(spans[1].name, "second");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[2].name, "outer");
    EXPECT_EQ(spans[2].depth, 0u);
    EXPECT_LT(spans[0].seq, spans[1].seq);
    EXPECT_LT(spans[1].seq, spans[2].seq);
    // The parent's interval covers the children's.
    EXPECT_LE(spans[2].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[2].wall_ns, spans[0].wall_ns + spans[1].wall_ns);
    // The flush drained the ring.
    EXPECT_TRUE(flush_spans().empty());
}

TEST_F(ObsTest, SpanRingOverwritesOldestAndCountsDrops) {
    set_span_capacity(4);
    for (int i = 0; i < 10; ++i) {
        TraceSpan span("ring-span");
    }
    EXPECT_EQ(spans_dropped(), 6u);
    const std::vector<SpanRecord> spans = flush_spans();
    EXPECT_EQ(spans.size(), 4u);  // newest four survive
    EXPECT_EQ(spans_dropped(), 0u);  // flush resets the drop count
    set_span_capacity(4096);
}

TEST_F(ObsTest, DisabledSpansAndGatesRecordNothing) {
    set_enabled(false);
    {
        TraceSpan span("invisible");
    }
    EXPECT_TRUE(flush_spans().empty());
    set_enabled(true);
}

class FixedSimTime : public SimTimeSource {
public:
    double now = 0.0;
    double sim_now_s() const override { return now; }
};

TEST_F(ObsTest, SpanPricesSimulatedTime) {
    FixedSimTime sim;
    sim.now = 1.5;
    {
        TraceSpan span("sim-span", &sim);
        sim.now = 2.25;
    }
    const std::vector<SpanRecord> spans = flush_spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_TRUE(spans[0].has_sim);
    EXPECT_DOUBLE_EQ(spans[0].sim_start_s, 1.5);
    EXPECT_DOUBLE_EQ(spans[0].sim_elapsed_s, 0.75);
}

TEST_F(ObsTest, ExporterRoundTripValidatesAgainstSchema) {
    auto& registry = MetricsRegistry::global();
    registry.counter("test.hits").add(7);
    registry.gauge("test.level_db").set(-3.25);
    registry.histogram("test.latency_us", {1.0, 10.0, 100.0}).observe(42.0);
    registry.series("test.convergence").append({1.0, 2.0, 2.5});
    {
        TraceSpan span("test.region");
    }

    const RunManifest manifest = RunManifest::capture("unit-test", 7);
    const Json doc = build_telemetry(manifest);
    EXPECT_EQ(validate_telemetry(doc), "");

    // Serialize, reparse, revalidate: the emitted bytes round-trip.
    const std::string text = doc.dump();
    const Json parsed = Json::parse(text);
    EXPECT_EQ(validate_telemetry(parsed), "");
    EXPECT_EQ(parsed.at("schema").as_string(), "press.telemetry/v2");
    EXPECT_EQ(
        parsed.at("metrics").at("counters").at("test.hits").as_double(),
        7.0);
    EXPECT_EQ(parsed.at("manifest").at("seed").as_double(), 7.0);
    const Json& hist =
        parsed.at("metrics").at("histograms").at("test.latency_us");
    EXPECT_EQ(hist.at("counts").as_array().size(), 4u);
    EXPECT_EQ(hist.at("count").as_double(), 1.0);
    const Json& series = parsed.at("series").at("test.convergence");
    EXPECT_EQ(series.at("length").as_double(), 3.0);
    ASSERT_EQ(parsed.at("spans").as_array().size(), 1u);
    const Json& span0 = parsed.at("spans").as_array()[0];
    EXPECT_EQ(span0.at("name").as_string(), "test.region");
    // v2 causal identity: a root span names its own trace.
    EXPECT_GE(span0.at("span_id").as_double(), 1.0);
    EXPECT_EQ(span0.at("trace_id").as_double(),
              span0.at("span_id").as_double());
    EXPECT_EQ(span0.at("parent_span").as_double(), 0.0);
    EXPECT_FALSE(span0.at("adopted").as_bool());

    // The table renderer accepts the same document.
    const std::string table = render_table(parsed);
    EXPECT_NE(table.find("test.hits"), std::string::npos);
    EXPECT_NE(table.find("test.region"), std::string::npos);
}

TEST_F(ObsTest, ValidatorFlagsSchemaDrift) {
    const RunManifest manifest = RunManifest::capture("unit-test", 1);
    Json doc = build_telemetry(manifest);
    doc.as_object().emplace("surprise", Json(1.0));
    EXPECT_NE(validate_telemetry(doc), "");

    Json doc2 = build_telemetry(manifest);
    doc2.as_object().erase("spans");
    EXPECT_NE(validate_telemetry(doc2), "");

    Json doc3 = build_telemetry(manifest);
    doc3.as_object()["schema"] = Json(std::string("press.telemetry/v3"));
    EXPECT_NE(validate_telemetry(doc3), "");
}

TEST_F(ObsTest, ManifestIsDeterministicUnderFixedSeed) {
    const RunManifest a = RunManifest::capture("scenario-x", 1234);
    const RunManifest b = RunManifest::capture("scenario-x", 1234);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.git_describe.empty());
    EXPECT_FALSE(a.build_type.empty());
    EXPECT_GE(a.press_threads, 1u);
    // And the serialized form is byte-identical, which is what makes two
    // exports diffable.
    EXPECT_EQ(build_telemetry(a, false).dump(),
              build_telemetry(b, false).dump());
}

/// Deterministic score with real work, so multi-thread runs interleave.
double score_config(const surface::Config& c, util::Rng& rng,
                    control::EvalScratch& /*scratch*/) {
    double s = rng.uniform(0.0, 1.0);
    for (std::size_t e = 0; e < c.size(); ++e)
        s += static_cast<double>(c[e]) * static_cast<double>(e + 1);
    return s;
}

TEST_F(ObsTest, FoldedBatchMetricsMatchAcrossThreadCounts) {
    using control::BatchEvaluator;
    std::vector<surface::Config> batch;
    for (int i = 0; i < 64; ++i)
        batch.push_back({i % 4, (i / 4) % 4, (i / 16) % 4});

    const auto run = [&](std::size_t threads) {
        auto& registry = MetricsRegistry::global();
        registry.reset();
        BatchEvaluator pool(score_config, /*seed=*/99, threads);
        (void)pool.evaluate(batch);
        (void)pool.evaluate(batch);
        pool.publish_worker_stats();

        struct Folded {
            std::uint64_t evaluations;
            std::uint64_t batches;
            std::uint64_t worker_task_sum;
        } folded{};
        folded.evaluations =
            registry.counter("control.batch.evaluations").value();
        folded.batches = registry.counter("control.batch.batches").value();
        const std::size_t n = static_cast<std::size_t>(
            registry.gauge("control.batch.threads").value());
        EXPECT_EQ(n, threads);
        for (std::size_t i = 0; i < n; ++i)
            folded.worker_task_sum += static_cast<std::uint64_t>(
                registry
                    .gauge("control.batch.worker." + std::to_string(i) +
                           ".tasks")
                    .value());
        return folded;
    };

    const auto one = run(1);
    const auto eight = run(8);
    EXPECT_EQ(one.evaluations, 128u);
    EXPECT_EQ(eight.evaluations, one.evaluations);
    EXPECT_EQ(eight.batches, one.batches);
    // Work distribution differs across thread counts; the fold does not.
    EXPECT_EQ(one.worker_task_sum, 128u);
    EXPECT_EQ(eight.worker_task_sum, 128u);
}

TEST_F(ObsTest, ClassifyTelemetryEnvIsCaseInsensitive) {
    EXPECT_EQ(classify_telemetry_env(""), TelemetryEnv::kOn);
    EXPECT_EQ(classify_telemetry_env("1"), TelemetryEnv::kOn);
    EXPECT_EQ(classify_telemetry_env("on"), TelemetryEnv::kOn);
    EXPECT_EQ(classify_telemetry_env("TRUE"), TelemetryEnv::kOn);
    EXPECT_EQ(classify_telemetry_env("Yes"), TelemetryEnv::kOn);
    EXPECT_EQ(classify_telemetry_env("0"), TelemetryEnv::kOff);
    EXPECT_EQ(classify_telemetry_env("OFF"), TelemetryEnv::kOff);
    EXPECT_EQ(classify_telemetry_env("False"), TelemetryEnv::kOff);
    EXPECT_EQ(classify_telemetry_env("no"), TelemetryEnv::kOff);
    // Anything else names the export directory (and implies "on").
    EXPECT_EQ(classify_telemetry_env("/tmp/exports"),
              TelemetryEnv::kDirectory);
    EXPECT_EQ(classify_telemetry_env("onward"), TelemetryEnv::kDirectory);
}

TEST_F(ObsTest, SpansLinkIntoOneCausalTree) {
    {
        TraceSpan root("test.root");
        TraceSpan child("test.child");
    }
    const std::vector<SpanRecord> spans = flush_spans();
    ASSERT_EQ(spans.size(), 2u);
    const SpanRecord& child = spans[0];
    const SpanRecord& root = spans[1];
    EXPECT_EQ(root.trace_id, root.span_id);
    EXPECT_EQ(root.parent_span, 0u);
    EXPECT_EQ(child.trace_id, root.trace_id);
    EXPECT_EQ(child.parent_span, root.span_id);
    EXPECT_FALSE(root.adopted);
    EXPECT_FALSE(child.adopted);  // lexical nesting, not adoption
}

TEST_F(ObsTest, ContextGuardAdoptsAcrossThreads) {
    {
        TraceSpan root("test.root");
        const TraceContext ctx = root.context();
        std::thread worker([ctx]() {
            ContextGuard adopt(ctx);
            TraceSpan span("test.remote");
        });
        worker.join();
    }
    const std::vector<SpanRecord> spans = flush_spans();
    ASSERT_EQ(spans.size(), 2u);
    const SpanRecord& remote = spans[0];
    const SpanRecord& root = spans[1];
    EXPECT_EQ(remote.trace_id, root.trace_id);
    EXPECT_EQ(remote.parent_span, root.span_id);
    EXPECT_TRUE(remote.adopted);
    EXPECT_NE(remote.thread, root.thread);
}

/// The causal tree must be a property of the work, not of the worker
/// count: (span name -> parent span name) edges are identical whether a
/// batch runs on one thread or eight, and every span shares one trace.
TEST_F(ObsTest, BatchEvaluatorSpanTreeIsThreadCountInvariant) {
    std::vector<surface::Config> batch;
    for (int i = 0; i < 64; ++i)
        batch.push_back({i % 4, (i / 4) % 4, (i / 16) % 4});

    const auto run = [&](std::size_t threads) {
        (void)flush_spans();
        {
            TraceSpan root("test.optimize");
            control::BatchEvaluator pool(score_config, /*seed=*/99,
                                         threads);
            (void)pool.evaluate(batch);
        }  // pool joined: every worker span is closed
        const std::vector<SpanRecord> spans = flush_spans();
        std::map<std::uint64_t, std::string> name_of;
        for (const SpanRecord& s : spans) name_of[s.span_id] = s.name;
        std::set<std::uint64_t> traces;
        std::set<std::pair<std::string, std::string>> edges;
        for (const SpanRecord& s : spans) {
            traces.insert(s.trace_id);
            edges.insert({s.name, s.parent_span == 0
                                      ? std::string()
                                      : name_of[s.parent_span]});
        }
        EXPECT_EQ(traces.size(), 1u) << threads << " threads";
        return edges;
    };

    const auto serial = run(1);
    const auto parallel = run(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_TRUE(serial.count({"test.optimize", ""}));
    EXPECT_TRUE(serial.count({"control.batch.evaluate", "test.optimize"}));
    EXPECT_TRUE(serial.count(
        {"control.batch.worker_batch", "control.batch.evaluate"}));
}

TEST_F(ObsTest, FlightRecorderKeepsFreshestWindowAndCounterDeltas) {
    auto& registry = MetricsRegistry::global();
    registry.counter("test.flight.counter").add(5);
    flight_arm(8);
    registry.counter("test.flight.counter").add(3);
    for (int i = 0; i < 20; ++i) {
        TraceSpan span("test.flight.span");
    }
    const Json dump = flight_dump();
    flight_disarm();

    EXPECT_EQ(validate_flight(dump), "");
    EXPECT_EQ(dump.at("schema").as_string(), "press.flight/v1");
    EXPECT_EQ(dump.at("spans_recorded").as_double(), 20.0);
    // Only the freshest N survive the ring.
    EXPECT_LE(dump.at("spans").as_array().size(), 8u);
    EXPECT_GE(dump.at("spans").as_array().size(), 1u);
    for (const Json& s : dump.at("spans").as_array())
        EXPECT_EQ(s.at("name").as_string(), "test.flight.span");
    // Counter deltas are relative to the arming point, values absolute.
    const Json& counter = dump.at("counters").at("test.flight.counter");
    EXPECT_EQ(counter.at("value").as_double(), 8.0);
    EXPECT_EQ(counter.at("delta").as_double(), 3.0);
}

TEST_F(ObsTest, PerfettoExportRoundTrip) {
    {
        TraceSpan root("alpha.root");
        const TraceContext ctx = root.context();
        {
            TraceSpan child("alpha.child");
        }
        std::thread worker([ctx]() {
            ContextGuard adopt(ctx);
            TraceSpan span("beta.remote");
        });
        worker.join();
    }
    const RunManifest manifest = RunManifest::capture("unit-test", 3);
    const Json telemetry = build_telemetry(manifest);
    const Json trace = perfetto_export(telemetry);
    EXPECT_EQ(validate_trace(trace), "");

    std::size_t complete = 0, flow_starts = 0, flow_finishes = 0;
    std::set<double> pids;
    for (const Json& e : trace.at("traceEvents").as_array()) {
        const std::string& ph = e.at("ph").as_string();
        if (ph == "X") {
            ++complete;
            pids.insert(e.at("pid").as_double());
        }
        if (ph == "s") ++flow_starts;
        if (ph == "f") ++flow_finishes;
    }
    EXPECT_EQ(complete, 3u);
    // Two layers ("alpha", "beta") render as two processes.
    EXPECT_EQ(pids.size(), 2u);
    // Exactly the adopted cross-thread hop draws a flow arrow.
    EXPECT_EQ(flow_starts, 1u);
    EXPECT_EQ(flow_finishes, 1u);
}

TEST_F(ObsTest, BenchDiffGatesCountersAndForgivesGauges) {
    auto& registry = MetricsRegistry::global();
    registry.counter("test.diff.trials").add(100);
    registry.gauge("test.diff.elapsed_s").set(1.5);
    const RunManifest manifest = RunManifest::capture("unit-test", 11);
    const Json telemetry = build_telemetry(manifest);
    const Json baseline = make_baseline(telemetry);
    EXPECT_EQ(baseline.at("schema").as_string(), "press.bench_baseline/v1");

    // A run diffed against its own baseline passes.
    const DiffResult same = diff_telemetry(baseline, telemetry);
    EXPECT_TRUE(same.comparable);
    EXPECT_TRUE(same.ok()) << (same.failures.empty()
                                   ? ""
                                   : same.failures.front());

    // A doctored deterministic counter fails the gate.
    Json doctored = baseline;
    doctored["counters"]["test.diff.trials"] = Json(150.0);
    const DiffResult bad = diff_telemetry(doctored, telemetry);
    EXPECT_TRUE(bad.comparable);
    EXPECT_FALSE(bad.ok());

    // A wall-clock gauge shift only warns.
    Json shifted = baseline;
    shifted["gauges"]["test.diff.elapsed_s"] = Json(15.0);
    const DiffResult warned = diff_telemetry(shifted, telemetry);
    EXPECT_TRUE(warned.ok());
    EXPECT_FALSE(warned.warnings.empty());

    // A strict-identity mismatch makes the runs incomparable outright.
    Json alien = baseline;
    alien["manifest"]["press_threads"] = Json(999.0);
    const DiffResult incomparable = diff_telemetry(alien, telemetry);
    EXPECT_FALSE(incomparable.comparable);
    EXPECT_FALSE(incomparable.ok());
}

TEST_F(ObsTest, BenchDiffComparesScenarioAsSceneTokenSet) {
    auto& registry = MetricsRegistry::global();
    registry.counter("test.scenes.trials").add(10);
    const RunManifest manifest = RunManifest::capture("bench,fig4,fig6", 11);
    const Json telemetry = build_telemetry(manifest);
    const Json baseline = make_baseline(telemetry);

    // A current run that *added* a scene stays comparable; the addition
    // is surfaced as a warning so the baseline gets re-snapshotted.
    const RunManifest grown_manifest =
        RunManifest::capture("bench,fig4,fig6,massive", 11);
    const Json grown = build_telemetry(grown_manifest);
    const DiffResult added = diff_telemetry(baseline, grown);
    EXPECT_TRUE(added.comparable);
    EXPECT_TRUE(added.ok());
    ASSERT_FALSE(added.warnings.empty());
    EXPECT_NE(added.warnings.front().find("massive"), std::string::npos);

    // Dropping a baseline scene silently removes its counters from the
    // run, so the comparison is meaningless: incomparable, hard fail.
    const RunManifest shrunk_manifest = RunManifest::capture("bench,fig4", 11);
    const Json shrunk = build_telemetry(shrunk_manifest);
    const DiffResult dropped = diff_telemetry(baseline, shrunk);
    EXPECT_FALSE(dropped.comparable);
    EXPECT_FALSE(dropped.ok());
    ASSERT_FALSE(dropped.failures.empty());
    EXPECT_NE(dropped.failures.front().find("fig6"), std::string::npos);

    // Single-token scenarios keep the old exact-match behavior: a
    // rename is a removal plus an addition, so it still fails.
    const Json solo_base =
        make_baseline(build_telemetry(RunManifest::capture("alpha", 11)));
    const Json solo_cur = build_telemetry(RunManifest::capture("beta", 11));
    EXPECT_FALSE(diff_telemetry(solo_base, solo_cur).comparable);
}

// ---- timeseries store and SLO tracker ----------------------------------

TEST_F(ObsTest, TimeseriesBaselinesAtDiscoveryAndTracksDeltas) {
    Counter& c = MetricsRegistry::global().counter("ts.counter");
    c.add(5);  // pre-tracking history must not leak into the first window
    Timeseries ts;
    ts.refresh();
    c.add(3);
    ts.sample(1.0);
    c.add(2);
    ts.sample(2.0);
    const auto deltas = ts.counter_deltas("ts.counter");
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_DOUBLE_EQ(deltas[0], 3.0);
    EXPECT_DOUBLE_EQ(deltas[1], 2.0);
    EXPECT_EQ(ts.revision(), 2u);
    EXPECT_DOUBLE_EQ(ts.last_sample_s(), 2.0);
}

TEST_F(ObsTest, TimeseriesCounterResetIsGuardedNotUnderflowed) {
    Counter& c = MetricsRegistry::global().counter("ts.reset");
    Timeseries ts;
    ts.refresh();
    c.add(7);
    ts.sample(1.0);
    c.reset();
    c.add(4);  // value (4) moved backwards past last (7)
    ts.sample(2.0);
    const auto deltas = ts.counter_deltas("ts.reset");
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_DOUBLE_EQ(deltas[0], 7.0);
    EXPECT_DOUBLE_EQ(deltas[1], 4.0);  // the whole new value, no wrap
}

TEST_F(ObsTest, TimeseriesRingKeepsNewestWindows) {
    TimeseriesOptions options;
    options.ring_capacity = 3;
    Counter& c = MetricsRegistry::global().counter("ts.ring");
    Timeseries ts(options);
    ts.refresh();
    for (int i = 1; i <= 5; ++i) {
        c.add(static_cast<std::uint64_t>(i));
        ts.sample(static_cast<double>(i));
    }
    const auto deltas = ts.counter_deltas("ts.ring");
    ASSERT_EQ(deltas.size(), 3u);  // oldest two windows rolled off
    EXPECT_DOUBLE_EQ(deltas[0], 3.0);
    EXPECT_DOUBLE_EQ(deltas[1], 4.0);
    EXPECT_DOUBLE_EQ(deltas[2], 5.0);
}

TEST_F(ObsTest, TimeseriesHistogramDigestIsPerWindow) {
    Histogram& h = MetricsRegistry::global().histogram(
        "ts.hist", {100.0, 1000.0, 10000.0});
    Timeseries ts;
    ts.refresh();
    h.observe(50.0);
    h.observe(500.0);
    h.observe(500.0);
    ts.sample(1.0);
    h.observe(5000.0);
    ts.sample(2.0);
    const auto windows = ts.histogram_windows("ts.hist");
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].count, 3u);
    EXPECT_DOUBLE_EQ(windows[0].sum, 1050.0);
    EXPECT_DOUBLE_EQ(windows[0].p50, 1000.0);  // bucket upper bound
    // The second window digests only its own observation, not history.
    EXPECT_EQ(windows[1].count, 1u);
    EXPECT_DOUBLE_EQ(windows[1].sum, 5000.0);
    EXPECT_DOUBLE_EQ(windows[1].p50, 10000.0);
}

TEST_F(ObsTest, TimeseriesRefreshIfGrownPicksUpNewMetrics) {
    MetricsRegistry::global().counter("ts.grow.first");
    Timeseries ts;
    ts.refresh();
    Counter& late = MetricsRegistry::global().counter("ts.grow.second");
    ts.refresh_if_grown();  // baselines the newcomer at discovery
    late.add(9);
    ts.sample(1.0);
    const auto deltas = ts.counter_deltas("ts.grow.second");
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(deltas[0], 9.0);
}

TEST_F(ObsTest, ExemplarsKeepWindowMaxAndThresholdCrossersOnce) {
    TimeseriesOptions options;
    options.exemplar_capacity = 4;
    options.exemplar_threshold_us = 1000.0;
    Timeseries ts(options);
    ts.refresh();
    ts.note_exemplar(500.0, 0xA, 0.1);   // below threshold, still the max
    ts.note_exemplar(2000.0, 0xB, 0.2);  // new max; 500 wasn't a crosser
    ts.note_exemplar(1500.0, 0xC, 0.3);  // threshold slot
    ts.note_exemplar(3000.0, 0xD, 0.4);  // new max; 2000 moves to a slot
    ts.note_exemplar(600.0, 0xE, 0.5);   // neither max nor crosser: gone
    ts.sample(1.0);
    const auto exemplars = ts.window_exemplars();
    ASSERT_EQ(exemplars.size(), 3u);
    // Slowest first, each observation listed exactly once.
    EXPECT_DOUBLE_EQ(exemplars[0].value_us, 3000.0);
    EXPECT_EQ(exemplars[0].trace_id, 0xDu);
    EXPECT_DOUBLE_EQ(exemplars[1].value_us, 2000.0);
    EXPECT_EQ(exemplars[1].trace_id, 0xBu);
    EXPECT_DOUBLE_EQ(exemplars[2].value_us, 1500.0);
    EXPECT_EQ(exemplars[2].trace_id, 0xCu);
    // The rotation emptied the accumulator: a quiet window has none.
    ts.sample(2.0);
    EXPECT_TRUE(ts.window_exemplars().empty());
}

TEST_F(ObsTest, LatestFrameFiltersByPrefixAndValidates) {
    MetricsRegistry::global().counter("service.ts.requests").add(3);
    MetricsRegistry::global().counter("other.ts.noise").add(1);
    TimeseriesOptions options;
    options.exemplar_threshold_us = 100.0;
    Timeseries ts(options);
    ts.refresh();
    ts.note_exemplar(250.0, 0x1234ABCD, 0.5);
    ts.sample(1.0);

    const Json all = ts.latest_frame();
    EXPECT_TRUE(validate_timeseries(all).empty());
    EXPECT_TRUE(all.at("counters").contains("service.ts.requests"));
    EXPECT_TRUE(all.at("counters").contains("other.ts.noise"));
    ASSERT_EQ(all.at("exemplars").as_array().size(), 1u);
    const Json& e = all.at("exemplars").as_array()[0];
    EXPECT_EQ(e.at("metric").as_string(), "service.request_us");
    // Trace ids ride as hex strings: a u64 does not survive a double.
    EXPECT_EQ(e.at("trace_id").as_string(), "0x1234abcd");

    const Json scoped = ts.latest_frame("service.", false);
    EXPECT_TRUE(validate_timeseries(scoped).empty());
    EXPECT_TRUE(scoped.at("counters").contains("service.ts.requests"));
    EXPECT_FALSE(scoped.at("counters").contains("other.ts.noise"));
    EXPECT_TRUE(scoped.at("exemplars").as_array().empty());
}

TEST_F(ObsTest, ValidateTimeseriesAcceptsStreamsAndFlagsDrift) {
    Timeseries ts;
    ts.refresh();
    ts.sample(1.0);
    Json frame = ts.latest_frame();

    Json::Object stream_obj;
    stream_obj.emplace("schema", Json(std::string("press.timeseries/v1")));
    Json::Array frames;
    frames.push_back(frame);
    frames.push_back(frame);
    stream_obj.emplace("frames", Json(std::move(frames)));
    EXPECT_TRUE(validate_timeseries(Json(std::move(stream_obj))).empty());

    // Optional service-injected keys are typed.
    frame["queue_depth"] = 4.0;
    Json session = Json::object();
    session["outbox"] = 2.0;
    session["subscribed"] = true;
    Json sessions = Json::object();
    sessions["7"] = std::move(session);
    frame["sessions"] = std::move(sessions);
    EXPECT_TRUE(validate_timeseries(frame).empty());
    frame["queue_depth"] = -1.0;
    EXPECT_NE(validate_timeseries(frame), "");
    frame["queue_depth"] = 4.0;
    frame["sessions"].as_object().at("7").as_object().erase("outbox");
    EXPECT_NE(validate_timeseries(frame), "");

    // Schema drift is named, not silently accepted.
    Json bad = ts.latest_frame();
    bad["counters"]["service.x"] = -3.0;
    EXPECT_NE(validate_timeseries(bad), "");
    Json wrong_schema = ts.latest_frame();
    wrong_schema["schema"] = "press.telemetry/v2";
    EXPECT_NE(validate_timeseries(wrong_schema), "");
    Json bad_exemplar = ts.latest_frame();
    Json e = Json::object();
    e["metric"] = "service.request_us";
    e["value_us"] = 10.0;
    e["trace_id"] = 123.0;  // not a hex string
    e["t_s"] = 1.0;
    bad_exemplar["exemplars"].as_array().push_back(std::move(e));
    EXPECT_NE(validate_timeseries(bad_exemplar), "");
}

TEST_F(ObsTest, SloTrackerBurnAndComplianceOverRollingWindow) {
    SloOptions options;
    options.window_s = 4.0;
    options.buckets = 4;
    options.miss_budget = 0.1;
    options.latency_target_us = 1000.0;
    SloTracker slo(options);

    // Empty window: no burn, full compliance (not a division by zero).
    EXPECT_DOUBLE_EQ(slo.burn_rate(0.0), 0.0);
    EXPECT_DOUBLE_EQ(slo.compliance(0.0), 1.0);

    for (int i = 0; i < 8; ++i) slo.record_ok(1.0, 100.0);
    slo.record_ok(1.0, 5000.0);  // met the deadline, blew the target
    slo.record_miss(1.0);
    EXPECT_EQ(slo.window_total(1.0), 10u);
    EXPECT_EQ(slo.window_misses(1.0), 1u);
    // 10% misses against a 10% budget: burning at exactly 1x.
    EXPECT_NEAR(slo.burn_rate(1.0), 1.0, 1e-9);
    // One miss and one slow request out of ten.
    EXPECT_NEAR(slo.compliance(1.0), 0.8, 1e-9);

    // Once the window slides past the activity, the incident ages out.
    EXPECT_EQ(slo.window_total(10.0), 0u);
    EXPECT_DOUBLE_EQ(slo.burn_rate(10.0), 0.0);
    EXPECT_DOUBLE_EQ(slo.compliance(10.0), 1.0);
}

TEST_F(ObsTest, JsonParserHandlesEscapesAndNumbers) {
    const Json v = Json::parse(
        R"({"s": "a\"b\\cAé", "n": -1.5e3, "i": 42,)"
        R"( "t": true, "z": null, "a": [1, 2.5]})");
    EXPECT_EQ(v.at("s").as_string(), "a\"b\\cAé");
    EXPECT_DOUBLE_EQ(v.at("n").as_double(), -1500.0);
    EXPECT_DOUBLE_EQ(v.at("i").as_double(), 42.0);
    EXPECT_TRUE(v.at("t").as_bool());
    EXPECT_TRUE(v.at("z").is_null());
    EXPECT_EQ(v.at("a").as_array().size(), 2u);
    EXPECT_THROW(Json::parse("{\"unterminated\": "), std::runtime_error);
    // Deterministic writer: keys come out sorted, integers undecorated.
    Json::Object obj;
    obj.emplace("b", Json(2.0));
    obj.emplace("a", Json(1.0));
    const std::string text = Json(std::move(obj)).dump();
    EXPECT_LT(text.find("\"a\""), text.find("\"b\""));
    EXPECT_NE(text.find("\"a\": 1"), std::string::npos);
}

}  // namespace
}  // namespace press::obs
