// device::PipelineEngine: the overlapped chunk execution engine. The
// contract under test is bit-identity — overlapped execution (any depth,
// any submission order, fault injection on or off) must produce exactly
// the serial results — plus the per-stream trace structure and error
// surfacing at collect().
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::device {
namespace {

using encoding::Sequence;

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

sw::ChunkJob make_job(const Batch& b, std::size_t chunk, std::size_t begin,
                      std::size_t len, unsigned attempt = 0) {
  sw::ChunkJob job;
  job.chunk = chunk;
  job.attempt = attempt;
  job.xs = std::span<const Sequence>(b.xs).subspan(begin, len);
  job.ys = std::span<const Sequence>(b.ys).subspan(begin, len);
  return job;
}

FaultConfig noisy_faults() {
  FaultConfig fc;
  fc.seed = 77;
  fc.flip_probability = 0.01;
  fc.drop_sync_probability = 0.05;
  fc.copy_flip_probability = 0.005;
  return fc;
}

IntegrityConfig full_integrity() {
  IntegrityConfig ic;
  ic.enabled = true;
  ic.sample_every = 4;
  ic.canary_lanes = true;
  ic.checksum_copies = true;
  return ic;
}

void expect_same_result(const sw::ChunkResult& a, const sw::ChunkResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.scores, b.scores) << what;
  ASSERT_EQ(a.faults.size(), b.faults.size()) << what;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].stage, b.faults[i].stage) << what << " fault " << i;
    EXPECT_EQ(a.faults[i].block, b.faults[i].block) << what << " fault " << i;
  }
  EXPECT_EQ(a.integrity_checks, b.integrity_checks) << what;
}

TEST(PipelineEngine, RunMatchesOneShotDriver) {
  const Batch b = make_batch(1, 37, 8, 16);
  for (const sw::LaneWidth width : {sw::LaneWidth::k32, sw::LaneWidth::k64}) {
    EngineOptions opts;
    opts.scheme = kScheme;
    opts.width = width;
    PipelineEngine engine(opts);
    const sw::ChunkResult r = engine.run(make_job(b, 0, 0, b.xs.size()));
    const GpuRunResult ref =
        gpu_bpbc_max_scores(b.xs, b.ys, kScheme, width);
    EXPECT_EQ(r.scores, ref.scores);
    EXPECT_TRUE(r.has_phase_timings);
  }
}

TEST(PipelineEngine, DeclaresStreamCaps) {
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.integrity = full_integrity();
  const PipelineEngine engine(opts);
  EXPECT_TRUE(engine.caps().streams);
  EXPECT_TRUE(engine.caps().stop_polling);
  EXPECT_TRUE(engine.caps().integrity);
}

TEST(PipelineEngine, SubmitCollectMatchesRunAcrossArenaReuse) {
  // 6 chunks over 3 arena slots: every slot is reused at least once, and
  // the FIFO results must equal fresh synchronous runs of the same jobs.
  const Batch b = make_batch(2, 96, 8, 12);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.overlap_depth = 3;
  PipelineEngine overlapped(opts);
  PipelineEngine serial(opts);
  const std::size_t chunk_pairs = 16;
  for (std::size_t c = 0; c < 6; ++c)
    overlapped.submit(make_job(b, c, c * chunk_pairs, chunk_pairs));
  for (std::size_t c = 0; c < 6; ++c) {
    const sw::ChunkResult got = overlapped.collect();
    const sw::ChunkResult want =
        serial.run(make_job(b, c, c * chunk_pairs, chunk_pairs));
    expect_same_result(got, want, "chunk " + std::to_string(c));
  }
}

TEST(PipelineEngine, OverlapDepthBitIdenticalUnderFaultInjection) {
  // The acceptance property: depth-1 and depth-4 executions of the same
  // faulty screen are bit-identical — scores, fault findings, and check
  // counts — because campaigns derive from (chunk, attempt), not from
  // execution order, and reused arenas are zero-filled per job.
  const Batch b = make_batch(3, 128, 8, 12);
  const std::size_t chunk_pairs = 16, n_chunks = 8;
  std::vector<sw::ChunkResult> results[2];
  std::uint64_t total_faults = 0;
  int variant = 0;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    FaultInjector faults(noisy_faults());
    EngineOptions opts;
    opts.scheme = kScheme;
    opts.faults = &faults;
    opts.integrity = full_integrity();
    opts.overlap_depth = depth;
    PipelineEngine engine(opts);
    for (std::size_t c = 0; c < n_chunks; ++c)
      engine.submit(make_job(b, c, c * chunk_pairs, chunk_pairs));
    for (std::size_t c = 0; c < n_chunks; ++c) {
      results[variant].push_back(engine.collect());
      total_faults += results[variant].back().faults.size();
    }
    ++variant;
  }
  ASSERT_GT(total_faults, 0u) << "fault rates too low to exercise anything";
  for (std::size_t c = 0; c < n_chunks; ++c)
    expect_same_result(results[0][c], results[1][c],
                       "chunk " + std::to_string(c));
}

TEST(PipelineEngine, FaultCampaignIndependentOfSubmissionOrder) {
  // Chunk 2 scored alone must equal chunk 2 scored third in a pipeline:
  // its fault campaign is a function of its tag, not of injector history.
  const Batch b = make_batch(4, 64, 8, 12);
  const std::size_t chunk_pairs = 16;
  FaultInjector faults_a(noisy_faults());
  FaultInjector faults_b(noisy_faults());
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.integrity = full_integrity();
  opts.overlap_depth = 3;

  opts.faults = &faults_a;
  PipelineEngine pipelined(opts);
  for (std::size_t c = 0; c < 4; ++c)
    pipelined.submit(make_job(b, c, c * chunk_pairs, chunk_pairs));
  std::vector<sw::ChunkResult> piped;
  for (std::size_t c = 0; c < 4; ++c) piped.push_back(pipelined.collect());

  opts.faults = &faults_b;
  PipelineEngine solo(opts);
  const sw::ChunkResult alone =
      solo.run(make_job(b, 2, 2 * chunk_pairs, chunk_pairs));
  expect_same_result(piped[2], alone, "chunk 2");
}

TEST(PipelineEngine, TraceShowsStageSpansOnPerStreamTracks) {
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);
  const Batch b = make_batch(5, 48, 8, 12);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.telemetry = session.sink();
  opts.overlap_depth = 3;
  PipelineEngine engine(opts);
  const std::size_t n_chunks = 3, chunk_pairs = 16;
  for (std::size_t c = 0; c < n_chunks; ++c)
    engine.submit(make_job(b, c, c * chunk_pairs, chunk_pairs));
  for (std::size_t c = 0; c < n_chunks; ++c) engine.collect();

  std::size_t copy_in = 0, compute = 0, copy_out = 0;
  for (const telemetry::TraceEvent& e : session.tracer()->events()) {
    const std::string name = e.name;
    if (e.track == telemetry::kTrackStreamBase + 0) {
      EXPECT_TRUE(name == "H2G" || name == "W2B") << name;
      ++copy_in;
    } else if (e.track == telemetry::kTrackStreamBase + 1) {
      EXPECT_EQ(name, "SWA");
      ++compute;
    } else if (e.track == telemetry::kTrackStreamBase + 2) {
      EXPECT_TRUE(name == "B2W" || name == "G2H") << name;
      ++copy_out;
    }
  }
  EXPECT_EQ(copy_in, 2 * n_chunks);   // H2G + W2B per chunk
  EXPECT_EQ(compute, n_chunks);       // SWA per chunk
  EXPECT_EQ(copy_out, 2 * n_chunks);  // B2W + G2H per chunk
}

TEST(PipelineEngine, StopErrorSurfacesAtCollect) {
  const Batch b = make_batch(6, 32, 8, 12);
  util::CancellationToken cancel;
  cancel.cancel();
  const util::StopCondition stop(&cancel, {});
  EngineOptions opts;
  opts.scheme = kScheme;
  PipelineEngine engine(opts);
  sw::ChunkJob job = make_job(b, 0, 0, 16);
  job.stop = &stop;
  engine.submit(job);
  try {
    engine.collect();
    FAIL() << "collect did not rethrow the stop";
  } catch (const util::StatusError& e) {
    EXPECT_TRUE(util::is_stop_code(e.status().code())) << e.what();
  }
  // The engine stays usable after a stopped job.
  const sw::ChunkResult r = engine.run(make_job(b, 1, 16, 16));
  EXPECT_EQ(r.scores.size(), 16u);
}

TEST(PipelineEngine, CollectWithoutSubmitThrows) {
  EngineOptions opts;
  opts.scheme = kScheme;
  PipelineEngine engine(opts);
  EXPECT_THROW(engine.collect(), util::StatusError);
}

TEST(PipelineEngine, ShapeChangeRequiresEmptyPipeline) {
  const Batch small = make_batch(7, 32, 8, 12);
  const Batch wide = make_batch(8, 32, 8, 24);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.overlap_depth = 2;
  PipelineEngine engine(opts);
  engine.submit(make_job(small, 0, 0, 16));
  EXPECT_THROW(engine.submit(make_job(wide, 1, 0, 16)), util::StatusError);
  engine.collect();
  // Pipeline drained: the new shape is accepted and scores correctly.
  const sw::ChunkResult r = engine.run(make_job(wide, 1, 0, 16));
  const GpuRunResult ref = gpu_bpbc_max_scores(
      std::span<const Sequence>(wide.xs).subspan(0, 16),
      std::span<const Sequence>(wide.ys).subspan(0, 16), kScheme,
      sw::LaneWidth::k32);
  EXPECT_EQ(r.scores, ref.scores);
}

// A job whose SWA blocks the watchdog killed is a watchdog run in the
// telemetry registry, synchronous or streamed alike; the count comes from
// each job's own killed blocks, and a clean run adds nothing.
TEST(PipelineEngine, WatchdogKillsCountAsWatchdogRuns) {
  const Batch b = make_batch(9, 64, 8, 16);
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);

  FaultConfig fc;
  fc.seed = 31;
  fc.stall_probability = 1.0;
  FaultInjector injector(fc);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.faults = &injector;
  opts.watchdog_phases = 8 + 16 + 8;  // SWA needs m+n-1; a stall adds 2^20
  opts.telemetry = session.sink();
  opts.overlap_depth = 2;
  PipelineEngine stalled(opts);
  stalled.run(make_job(b, 0, 0, 32));
  stalled.submit(make_job(b, 1, 32, 32));
  stalled.collect();
  EXPECT_EQ(injector.log().watchdog_trips, 2u);

  EngineOptions clean_opts = opts;
  clean_opts.faults = nullptr;
  PipelineEngine clean(clean_opts);
  clean.run(make_job(b, 0, 0, 32));

  const telemetry::MetricsRegistry::Snapshot s =
      session.registry().snapshot();
  EXPECT_EQ(s.counters.at("device.runs"), 3u);
  EXPECT_EQ(s.counters.at("device.watchdog_runs"), 2u);
}

}  // namespace
}  // namespace swbpbc::device
