// Telemetry wired through the screening stack: spans from the device
// stages / chunk loop / quarantine path, pool-worker spans via the
// process-wide observer, metrics absorption into the registry, the typed
// kCallbackError contract for throwing progress observers, and the
// telemetry-off guarantee that instrumentation never changes results.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc {
namespace {

using encoding::Sequence;

constexpr sw::ScoreParams kParams{2, 1, 1};
const sw::ScoringScheme kScheme;  // 2/1/1 linear

struct Batch {
  std::vector<Sequence> xs;
  std::vector<Sequence> ys;
};

Batch make_batch(std::uint64_t seed, std::size_t count, std::size_t m,
                 std::size_t n) {
  util::Xoshiro256 rng(seed);
  return {encoding::random_sequences(rng, count, m),
          encoding::random_sequences(rng, count, n)};
}

std::vector<std::uint32_t> scalar_refs(const Batch& b) {
  std::vector<std::uint32_t> refs;
  refs.reserve(b.xs.size());
  for (std::size_t k = 0; k < b.xs.size(); ++k)
    refs.push_back(sw::max_score(b.xs[k], b.ys[k], kParams));
  return refs;
}

std::set<std::string> span_names(telemetry::Telemetry& session) {
  std::set<std::string> names;
  for (const telemetry::TraceEvent& e : session.tracer()->events())
    names.insert(e.name);
  return names;
}

// --- screen loop spans and metrics ---------------------------------------

TEST(TelemetryPipeline, ScreenRecordsSpansAndRegistryTotals) {
  const Batch b = make_batch(7, 20, 8, 16);

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);

  sw::ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 6;  // 20 pairs -> 4 chunks
  cfg.telemetry = session.sink();
  const sw::ScreenReport report = sw::screen(b.xs, b.ys, cfg);
  EXPECT_TRUE(report.status.ok());

  const std::set<std::string> names = span_names(session);
  EXPECT_TRUE(names.count("screen"));
  EXPECT_TRUE(names.count("chunk"));
  EXPECT_TRUE(names.count("chunk.backend"));

  const telemetry::MetricsRegistry::Snapshot s =
      session.registry().snapshot();
  EXPECT_EQ(s.counters.at("screen.runs"), 1u);
  EXPECT_EQ(s.counters.at("screen.pairs"), 20u);
  EXPECT_EQ(s.counters.at("screen.hits"), report.hits.size());
  EXPECT_EQ(s.histograms.at("screen.chunk.ms").count, 4u);
  EXPECT_GT(s.gauges.at("screen.gcups"), 0.0);
  EXPECT_GT(s.gauges.at("screen.pairs_per_s"), 0.0);
}

TEST(TelemetryPipeline, ScreenResultsIdenticalWithTelemetryOnAndOff) {
  const Batch b = make_batch(21, 33, 8, 16);

  sw::ScreenConfig off;
  off.params = kParams;
  off.threshold = 10;
  off.chunk_pairs = 8;
  const sw::ScreenReport plain = sw::screen(b.xs, b.ys, off);

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);
  sw::ScreenConfig on = off;
  on.telemetry = session.sink();
  const sw::ScreenReport traced = sw::screen(b.xs, b.ys, on);

  EXPECT_EQ(traced.scores, plain.scores);
  ASSERT_EQ(traced.hits.size(), plain.hits.size());
  for (std::size_t h = 0; h < plain.hits.size(); ++h) {
    EXPECT_EQ(traced.hits[h].index, plain.hits[h].index);
    EXPECT_EQ(traced.hits[h].bpbc_score, plain.hits[h].bpbc_score);
    EXPECT_EQ(traced.hits[h].detail.score, plain.hits[h].detail.score);
  }
  EXPECT_GT(session.tracer()->size(), 0u);
}

// --- fault injection: quarantine spans, bit-identical recovery -----------

device::EngineOptions fault_engine(device::FaultInjector& injector,
                                   telemetry::Telemetry* sink, std::size_t m,
                                   std::size_t n) {
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = sw::LaneWidth::k32;
  eopts.faults = &injector;
  eopts.watchdog_phases = m + n + 16;
  eopts.telemetry = sink;
  eopts.overlap_depth = 1;
  return eopts;
}

sw::ScreenConfig fault_config(sw::Backend& backend,
                              telemetry::Telemetry* sink) {
  sw::ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 12;
  cfg.width = sw::LaneWidth::k32;
  cfg.traceback = false;
  cfg.chunk_pairs = 8;
  cfg.chunk_retry_limit = 3;
  cfg.backend = &backend;
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;  // verify every lane -> catches every flip
  cfg.check.max_retries = 4;
  cfg.telemetry = sink;
  return cfg;
}

TEST(TelemetryPipeline, FaultInjectedScreenTracesQuarantineBitIdentically) {
  constexpr std::size_t kCount = 32, kM = 8, kN = 24;
  device::FaultConfig fault;
  fault.flip_probability = 5e-3;
  fault.copy_flip_probability = 5e-3;

  // Find a campaign where the self-check actually quarantines (near-
  // certain at these rates; the seed scan keeps the test deterministic).
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 30 && !exercised; ++seed) {
    const Batch b = make_batch(100 + seed, kCount, kM, kN);
    fault.seed = seed;

    telemetry::TelemetryConfig tcfg;
    tcfg.enabled = true;
    telemetry::Telemetry session(tcfg);
    device::FaultInjector traced_injector(fault);
    device::PipelineEngine traced_engine(
        fault_engine(traced_injector, session.sink(), kM, kN));
    const auto traced = sw::try_screen(
        b.xs, b.ys, fault_config(traced_engine, session.sink()));
    ASSERT_TRUE(traced.has_value()) << traced.status().to_string();

    device::FaultInjector plain_injector(fault);
    device::PipelineEngine plain_engine(
        fault_engine(plain_injector, nullptr, kM, kN));
    const auto plain = sw::try_screen(
        b.xs, b.ys, fault_config(plain_engine, nullptr));
    ASSERT_TRUE(plain.has_value()) << plain.status().to_string();

    // Recovery must reconcile both runs with the scalar reference, so the
    // screened batch is bit-identical with telemetry on and off even while
    // faults fire.
    const std::vector<std::uint32_t> refs = scalar_refs(b);
    EXPECT_EQ(traced->scores, refs) << "seed " << seed;
    EXPECT_EQ(plain->scores, refs) << "seed " << seed;
    EXPECT_EQ(traced->scores, plain->scores);

    if (traced->reliability.retry_attempts == 0) continue;
    exercised = true;

    // The episode shows up on the timeline: all five device stages, the
    // chunk loop, the self-check, and at least one quarantine retry.
    const std::set<std::string> names = span_names(session);
    for (const char* expected : {"H2G", "W2B", "SWA", "B2W", "G2H", "screen",
                                 "chunk", "chunk.backend", "self_check",
                                 "quarantine.retry"}) {
      EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
    }
    const telemetry::MetricsRegistry::Snapshot s =
        session.registry().snapshot();
    EXPECT_EQ(s.counters.at("screen.retry_attempts"),
              traced->reliability.retry_attempts);
    EXPECT_EQ(s.counters.at("screen.mismatches_detected"),
              traced->reliability.mismatches_detected);
    EXPECT_GT(s.counters.at("device.runs"), 0u);
  }
  EXPECT_TRUE(exercised)
      << "no campaign triggered a self-check retry in 30 seeds";
}

// --- throwing progress observers -----------------------------------------

TEST(TelemetryPipeline, ThrowingProgressObserverYieldsTypedPartialReport) {
  const Batch b = make_batch(13, 20, 8, 12);
  const std::vector<std::uint32_t> refs = scalar_refs(b);

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);

  sw::ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 8;
  cfg.chunk_pairs = 6;  // 20 pairs -> chunks of 6,6,6,2
  cfg.telemetry = session.sink();
  cfg.progress = [](const sw::ChunkProgress& p) {
    if (p.chunk == 1) throw std::runtime_error("observer exploded");
  };

  const auto result = sw::try_screen(b.xs, b.ys, cfg);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  const sw::ScreenReport& report = *result;

  EXPECT_EQ(report.status.code(), util::ErrorCode::kCallbackError);
  EXPECT_NE(report.status.message().find("chunk 1"), std::string::npos);
  EXPECT_NE(report.status.message().find("observer exploded"),
            std::string::npos);

  // Everything settled before the throw is preserved: the first two
  // chunks completed with correct scores, the rest were never touched.
  ASSERT_EQ(report.chunks.size(), 4u);
  EXPECT_TRUE(report.chunks[0].completed);
  EXPECT_TRUE(report.chunks[1].completed);
  EXPECT_FALSE(report.chunks[2].completed);
  EXPECT_FALSE(report.chunks[3].completed);
  EXPECT_FALSE(report.complete());
  for (std::size_t k = 0; k < 12; ++k)
    EXPECT_EQ(report.scores[k], refs[k]) << "pair " << k;

  // The callback itself was timed, and the failure counted.
  EXPECT_TRUE(span_names(session).count("progress.callback"));
  EXPECT_EQ(session.registry().snapshot().counters.at(
                "screen.callback_errors"),
            1u);
}

TEST(TelemetryPipeline, NonThrowingObserverLeavesRunOk) {
  const Batch b = make_batch(14, 12, 8, 12);
  std::size_t calls = 0;
  sw::ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 8;
  cfg.chunk_pairs = 4;
  cfg.progress = [&calls](const sw::ChunkProgress&) { ++calls; };
  const sw::ScreenReport report = sw::screen(b.xs, b.ys, cfg);
  EXPECT_TRUE(report.status.ok());
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(calls, 3u);
}

// --- pool observer -------------------------------------------------------

TEST(TelemetryPipeline, PoolSpansAppearOnWorkerTracks) {
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.pool_spans = true;
  telemetry::Telemetry session(tcfg);

  util::ThreadPool pool(2);
  std::vector<std::uint32_t> out(256, 0);
  pool.parallel_for(0, out.size(),
                    [&out](std::size_t i) {
                      out[i] = static_cast<std::uint32_t>(i * i);
                    },
                    /*grain=*/32);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<std::uint32_t>(i * i));

  std::size_t pool_chunks = 0;
  for (const telemetry::TraceEvent& e : session.tracer()->events()) {
    if (std::string(e.name) != "pool.chunk") continue;
    ++pool_chunks;
    // Caller-driven chunks sit one track below the worker block.
    EXPECT_GE(e.track, telemetry::kTrackPoolBase - 1);
  }
  EXPECT_GT(pool_chunks, 0u);
}

TEST(TelemetryPipeline, PoolObserverUninstalledWithSession) {
  {
    telemetry::TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.pool_spans = true;
    telemetry::Telemetry session(tcfg);
    EXPECT_NE(util::ThreadPool::observer(), nullptr);
  }
  EXPECT_EQ(util::ThreadPool::observer(), nullptr);
}

// --- device absorption ---------------------------------------------------

TEST(TelemetryPipeline, DeviceRunFeedsStageKeyedMetricsIntoRegistry) {
  const Batch b = make_batch(5, 16, 8, 32);

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);

  device::GpuRunOptions options;
  options.record_metrics = true;
  options.telemetry = session.sink();
  const device::GpuRunResult result = device::gpu_bpbc_max_scores(
      b.xs, b.ys, kScheme, sw::LaneWidth::k32, options);
  EXPECT_EQ(result.scores, scalar_refs(b));

  // Every stage carries traffic, kernels and copies alike.
  EXPECT_GT(result.stage_metrics[sw::PipelineStage::kH2G].global_writes, 0u);
  EXPECT_GT(result.stage_metrics[sw::PipelineStage::kW2B].global_reads, 0u);
  EXPECT_GT(result.stage_metrics[sw::PipelineStage::kSWA].shared_accesses,
            0u);
  EXPECT_GT(result.stage_metrics[sw::PipelineStage::kB2W].global_writes, 0u);
  EXPECT_GT(result.stage_metrics[sw::PipelineStage::kG2H].global_reads, 0u);

  const telemetry::MetricsRegistry::Snapshot s =
      session.registry().snapshot();
  EXPECT_EQ(s.counters.at("device.runs"), 1u);
  for (const char* stage : {"H2G", "W2B", "SWA", "B2W", "G2H"}) {
    const std::string key = std::string("device.") + stage + ".ms";
    ASSERT_EQ(s.histograms.count(key), 1u) << "missing " << key;
    EXPECT_EQ(s.histograms.at(key).count, 1u);
  }
  EXPECT_EQ(s.counters.at("device.H2G.global_writes"),
            result.stage_metrics[sw::PipelineStage::kH2G].global_writes);
  EXPECT_EQ(s.counters.at("device.SWA.shared_accesses"),
            result.stage_metrics[sw::PipelineStage::kSWA].shared_accesses);
}

}  // namespace
}  // namespace swbpbc
