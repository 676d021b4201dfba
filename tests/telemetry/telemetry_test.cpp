// Unit tests for the telemetry core: histogram bucketing and percentile
// math, the span tracer and its Chrome trace_event export, the minimal
// JSON model backing both exporters, and the versioned RunReport
// round-trip (including wrong-schema/wrong-version rejection).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/status.hpp"

namespace swbpbc::telemetry {
namespace {

// --- histogram bucketing and percentiles ---------------------------------

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h({1.0, 2.0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(99), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  ASSERT_EQ(s.buckets.size(), s.bounds.size() + 1);  // implicit overflow
  for (const std::uint64_t b : s.buckets) EXPECT_EQ(b, 0u);
}

TEST(Histogram, SingleSampleIsExactAtEveryPercentile) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(7.25);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 7.25);
  EXPECT_EQ(s.max, 7.25);
  // Clamping to [min, max] makes a single sample exact, not interpolated.
  EXPECT_EQ(s.percentile(0), 7.25);
  EXPECT_EQ(s.percentile(50), 7.25);
  EXPECT_EQ(s.percentile(100), 7.25);
  EXPECT_EQ(s.mean(), 7.25);
}

TEST(Histogram, BucketEdgesCountIntoTheLowerBucket) {
  // Bucket i counts bounds[i-1] < x <= bounds[i]: a sample exactly on a
  // bound belongs to that bound's bucket, not the next one.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 0u);
}

TEST(Histogram, OverflowBucketCatchesSamplesAboveTheLastBound) {
  Histogram h({1.0, 2.0});
  h.observe(1000.0);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[2], 1u);
  // Percentiles stay finite and exact via the min/max clamp even though
  // the overflow bucket has no upper bound.
  EXPECT_EQ(s.percentile(50), 1000.0);
  EXPECT_EQ(s.max, 1000.0);
}

TEST(Histogram, PercentilesOrderedOnUniformSamples) {
  Histogram h(Histogram::exponential_bounds(1.0, 2.0, 10));
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  const double p50 = s.percentile(50);
  const double p95 = s.percentile(95);
  const double p99 = s.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  // p50 of 1..100 must land in the right ballpark despite bucketing.
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 75.0);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Histogram, ExponentialBoundsAreStrictlyAscending) {
  const std::vector<double> b = Histogram::exponential_bounds(0.001, 2.0, 22);
  ASSERT_EQ(b.size(), 22u);
  EXPECT_EQ(b[0], 0.001);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

// --- counters, gauges, registry ------------------------------------------

TEST(MetricsRegistry, ReturnsStableReferencesAndSnapshots) {
  MetricsRegistry reg;
  Counter& c = reg.counter("screen.pairs");
  c.add(3);
  reg.counter("screen.pairs").add(2);  // same counter by name
  reg.gauge("screen.gcups").set(1.5);
  reg.histogram("chunk.ms").observe(4.0);
  reg.histogram("chunk.ms").observe(8.0);  // layout fixed by first call

  const MetricsRegistry::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.count("screen.pairs"), 1u);
  EXPECT_EQ(s.counters.at("screen.pairs"), 5u);
  EXPECT_EQ(s.gauges.at("screen.gcups"), 1.5);
  EXPECT_EQ(s.histograms.at("chunk.ms").count, 2u);
  EXPECT_EQ(s.histograms.at("chunk.ms").sum, 12.0);
}

// --- tracer and spans ----------------------------------------------------

TEST(Tracer, SpansRecordWithMonotoneNonNegativeTimestamps) {
  Tracer tracer(64);
  {
    Span outer(&tracer, "outer", "test");
    outer.arg("pairs", 42);
    Span inner(&tracer, "inner", "test", kTrackDevice);
  }
  ASSERT_EQ(tracer.size(), 2u);
  const std::vector<TraceEvent> events = tracer.events();
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  // The outer span encloses the inner one.
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_EQ(inner->track, kTrackDevice);
  ASSERT_STREQ(outer->arg_names[0], "pairs");
  EXPECT_EQ(outer->arg_values[0], 42);
}

TEST(Tracer, NullTracerSpanIsANoOp) {
  Span s(nullptr, "ghost", "test");
  s.arg("k", 1);
  s.finish();  // must not crash; double-finish below likewise
  s.finish();
}

TEST(Tracer, SpanArgKeepsOnlyTheFirstSlotsOfArguments) {
  static const char* const kKeys[] = {"a", "b", "c", "d", "e", "f"};
  static_assert(std::size(kKeys) == kSpanArgSlots + 1);
  Tracer tracer(4);
  {
    Span s(&tracer, "argful", "test");
    // One more argument than there are slots: the last is ignored.
    for (std::size_t i = 0; i < std::size(kKeys); ++i)
      s.arg(kKeys[i], static_cast<std::int64_t>(i + 1));
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  for (std::size_t i = 0; i < kSpanArgSlots; ++i) {
    ASSERT_STREQ(events[0].arg_names[i], kKeys[i]);
    EXPECT_EQ(events[0].arg_values[i], static_cast<std::int64_t>(i + 1));
  }
}

TEST(Tracer, RingOverflowDropsOldestAndCountsTheLoss) {
  Tracer tracer(8);
  for (int i = 0; i < 20; ++i) {
    Span s(&tracer, "tick", "test");
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // The export still parses and reports the loss.
  const auto doc = json::parse(tracer.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ((*doc)["swbpbc_dropped_events"].number_u64(), 12u);
}

TEST(Tracer, ChromeTraceJsonIsWellFormed) {
  Tracer tracer(64);
  tracer.set_track_name(kTrackScreen, "screen");
  tracer.set_track_name(kTrackDevice, "device");
  {
    Span a(&tracer, "H2G", "device", kTrackDevice);
    a.arg("words", 128);
  }
  { Span b(&tracer, "chunk", "screen"); }

  const std::string text = tracer.chrome_trace_json();
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << doc.status().to_string();
  const json::Value& events = (*doc)["traceEvents"];
  ASSERT_TRUE(events.is_array());

  std::size_t x_events = 0, m_events = 0;
  std::uint64_t last_ts = 0;
  for (const json::Value& e : events.array()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e["ph"].str();
    EXPECT_EQ(e["pid"].number_u64(), 1u);
    if (ph == "M") {
      ++m_events;
      EXPECT_EQ(e["name"].str(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");  // only complete events
    ++x_events;
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("cat"));
    ASSERT_TRUE(e["ts"].is_number());
    ASSERT_TRUE(e["dur"].is_number());
    EXPECT_GE(e["ts"].number(), 0.0);
    EXPECT_GE(e["dur"].number(), 0.0);
    EXPECT_GE(e["ts"].number_u64(), last_ts);  // exported in ts order
    last_ts = e["ts"].number_u64();
  }
  EXPECT_EQ(x_events, 2u);
  EXPECT_EQ(m_events, 2u);
}

TEST(Telemetry, DisabledSessionHasNullSink) {
  Telemetry off;  // default: disabled
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.sink(), nullptr);

  TelemetryConfig cfg;
  cfg.enabled = false;
  Telemetry explicit_off(cfg);
  EXPECT_EQ(explicit_off.sink(), nullptr);

  cfg.enabled = true;
  Telemetry on(cfg);
  EXPECT_EQ(on.sink(), &on);
  ASSERT_NE(on.tracer(), nullptr);
}

// --- JSON model ----------------------------------------------------------

TEST(Json, RoundTripsThroughDumpAndParse) {
  json::Object obj;
  obj["int"] = std::int64_t{-7};
  obj["big"] = std::uint64_t{1234567890123ull};
  obj["str"] = "quote\" slash\\ newline\n tab\t";
  obj["flag"] = true;
  obj["nil"] = json::Value();
  obj["arr"] = json::Array{json::Value(1.5), json::Value("x")};
  const std::string text = json::Value(std::move(obj)).dump();

  const auto back = json::parse(text);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  const json::Value& v = *back;
  EXPECT_EQ(v["int"].number(), -7.0);
  EXPECT_EQ(v["big"].number_u64(), 1234567890123ull);
  EXPECT_EQ(v["str"].str(), "quote\" slash\\ newline\n tab\t");
  EXPECT_TRUE(v["flag"].boolean());
  EXPECT_TRUE(v["nil"].is_null());
  ASSERT_EQ(v["arr"].array().size(), 2u);
  EXPECT_EQ(v["arr"].array()[0].number(), 1.5);
  EXPECT_EQ(v["arr"].array()[1].str(), "x");
  // Missing keys chain to null instead of throwing.
  EXPECT_TRUE(v["absent"]["deeper"].is_null());
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "nul", "\"open",
                          "{\"a\":1} trailing", "+1"}) {
    const auto r = json::parse(bad);
    EXPECT_FALSE(r.has_value()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), util::ErrorCode::kParseError);
  }
}

// --- RunReport round trip ------------------------------------------------

RunReport sample_report() {
  RunReport rep;
  rep.tool = "table4_runtime";
  rep.config_fingerprint = 0xdeadbeefcafe1234ull;
  rep.config["pairs"] = "512";
  rep.config["m"] = "64";

  RunReportRow row;
  row.impl = "GPUsim bitwise-32";
  row.pairs = 512;
  row.m = 64;
  row.n = 256;
  row.stages_ms = {{"H2G", 0.5}, {"W2B", 1.25}, {"SWA", 10.0},
                   {"B2W", 1.0}, {"G2H", 0.25}};
  row.total_ms = 13.0;
  row.gcups = 0.645;
  row.stage_metrics["SWA"]["global_read_transactions"] = 4096;
  row.stage_metrics["H2G"]["global_writes"] = 81920;
  rep.rows.push_back(row);

  MetricsRegistry reg;
  reg.counter("device.runs").add(6);
  reg.gauge("screen.gcups").set(0.645);
  reg.histogram("device.SWA.ms").observe(10.0);
  rep.metrics = reg.snapshot();
  return rep;
}

TEST(RunReport, RoundTripsThroughJson) {
  const RunReport rep = sample_report();
  const std::string text = rep.to_json();

  const auto back = parse_run_report(text);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  const RunReport& r = *back;
  EXPECT_EQ(r.tool, "table4_runtime");
  EXPECT_EQ(r.config_fingerprint, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(r.config.at("pairs"), "512");
  ASSERT_EQ(r.rows.size(), 1u);
  const RunReportRow& row = r.rows[0];
  EXPECT_EQ(row.impl, "GPUsim bitwise-32");
  EXPECT_EQ(row.pairs, 512u);
  EXPECT_EQ(row.n, 256u);
  EXPECT_EQ(row.stages_ms.size(), 5u);
  EXPECT_EQ(row.stages_ms.at("SWA"), 10.0);
  EXPECT_EQ(row.total_ms, 13.0);
  EXPECT_NEAR(row.gcups, 0.645, 1e-12);
  EXPECT_EQ(row.stage_metrics.at("SWA").at("global_read_transactions"),
            4096u);
  EXPECT_EQ(row.stage_metrics.at("H2G").at("global_writes"), 81920u);
  EXPECT_EQ(r.metrics.counters.at("device.runs"), 6u);
  EXPECT_EQ(r.metrics.gauges.at("screen.gcups"), 0.645);
  EXPECT_EQ(r.metrics.histograms.at("device.SWA.ms").count, 1u);
}

TEST(RunReport, ExportCarriesSchemaAndVersion) {
  const auto doc = json::parse(sample_report().to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ((*doc)["schema"].str(), kRunReportSchema);
  EXPECT_EQ((*doc)["schema_version"].number_u64(),
            static_cast<std::uint64_t>(kRunReportSchemaVersion));
}

TEST(RunReport, RejectsWrongSchemaOrVersion) {
  const std::string text = sample_report().to_json();

  std::string wrong_schema = text;
  const auto at = wrong_schema.find(kRunReportSchema);
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, std::string(kRunReportSchema).size(),
                       "other.report");
  auto r = parse_run_report(wrong_schema);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kParseError);

  std::string wrong_version = text;
  const auto vat = wrong_version.find("\"schema_version\":1");
  ASSERT_NE(vat, std::string::npos);
  wrong_version.replace(vat, 18, "\"schema_version\":99");
  r = parse_run_report(wrong_version);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kParseError);

  r = parse_run_report("not json at all");
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kParseError);
}

}  // namespace
}  // namespace swbpbc::telemetry
