// device::PipelineEngine: the simulator's one driver. The contract under
// test is bit-identity — a chunk scores exactly as a fresh engine would,
// whatever chunks or batch shapes the engine ran before it and in
// whatever order, fault injection on or off — plus error surfacing from
// run(), watchdog kills reaching the screen layer, and the wordwise row's
// scheme rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/scalar.hpp"
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

// run() is run_stages() folded into a ChunkResult: a warm engine's run()
// scores as a one-shot run_stages() on a fresh engine.
TEST(PipelineEngine, RunMatchesOneShotDriver) {
  const Batch b = make_batch(1, 37, 8, 16);
  for (const sw::LaneWidth width : {sw::LaneWidth::k32, sw::LaneWidth::k64}) {
    EngineOptions opts;
    opts.scheme = kScheme;
    opts.width = width;
    PipelineEngine engine(opts);
    const sw::ChunkResult r = engine.run(make_job(b, 0, 0, b.xs.size()));
    const GpuRunResult ref =
        PipelineEngine(opts).run_stages(make_job(b, 0, 0, b.xs.size()));
    EXPECT_EQ(r.scores, ref.scores);
    EXPECT_TRUE(r.has_phase_timings);
  }
}

TEST(PipelineEngine, RunAcrossReshapingBatchesMatchesFreshEngine) {
  // One engine alternates batch shapes, so its arena and shape caches are
  // rebuilt and reused across calls; every result must equal a fresh
  // engine's run of the same job and the scalar scores.
  const Batch narrow = make_batch(2, 48, 8, 12);
  const Batch wide = make_batch(8, 48, 8, 24);
  const Batch tall = make_batch(10, 48, 12, 12);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.integrity = full_integrity();
  PipelineEngine reused(opts);
  const std::size_t chunk_pairs = 16;
  const Batch* order[] = {&narrow, &wide, &narrow, &tall, &wide, &tall};
  for (std::size_t c = 0; c < 6; ++c) {
    const Batch& b = *order[c];
    const std::size_t begin = (c / 2) * chunk_pairs;
    const sw::ChunkJob job = make_job(b, c, begin, chunk_pairs);
    const sw::ChunkResult got = reused.run(job);
    PipelineEngine fresh(opts);
    expect_same_result(got, fresh.run(job), "chunk " + std::to_string(c));
    for (std::size_t k = 0; k < job.xs.size(); ++k)
      EXPECT_EQ(got.scores[k],
                sw::scheme_max_score(job.xs[k], job.ys[k], kScheme))
          << "chunk " << c << " pair " << k;
  }
}

TEST(PipelineEngine, ArenaReuseBitIdenticalToFreshEngineUnderFaults) {
  // Scores, fault findings and check counts of a chunk run on a reused
  // arena equal a fresh engine's run of that chunk alone: campaigns derive
  // from (chunk, attempt), and the arena is zero-filled per job under
  // faults, so a watchdog-killed block leaves zeros, not the previous
  // chunk's slices. A fault-free engine runs the same checks and finds
  // nothing.
  const Batch b = make_batch(3, 128, 8, 12);
  const std::size_t chunk_pairs = 16, n_chunks = 8;
  FaultConfig fc = noisy_faults();
  fc.stall_probability = 0.2;
  FaultInjector faults(fc);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.faults = &faults;
  opts.integrity = full_integrity();
  opts.watchdog_phases = 8 + 12 + 16;  // SWA needs m+n-1; a stall adds 2^20
  PipelineEngine reused(opts);
  EngineOptions clean_opts = opts;
  clean_opts.faults = nullptr;
  PipelineEngine clean(clean_opts);
  std::uint64_t total_faults = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const sw::ChunkJob job = make_job(b, c, c * chunk_pairs, chunk_pairs);
    const sw::ChunkResult got = reused.run(job);
    FaultInjector fresh_faults(fc);
    EngineOptions fresh_opts = opts;
    fresh_opts.faults = &fresh_faults;
    PipelineEngine fresh(fresh_opts);
    expect_same_result(got, fresh.run(job), "chunk " + std::to_string(c));

    const sw::ChunkResult ref = clean.run(job);
    EXPECT_TRUE(ref.faults.empty()) << "chunk " << c;
    EXPECT_EQ(got.integrity_checks, ref.integrity_checks) << "chunk " << c;
    total_faults += got.faults.size();
  }
  ASSERT_GT(total_faults, 0u) << "fault rates too low to exercise anything";
  EXPECT_GT(faults.log().watchdog_trips, 0u);
}

TEST(PipelineEngine, FaultCampaignIndependentOfSubmissionOrder) {
  // Chunks run in reverse order must score exactly as in forward order:
  // a chunk's fault campaign is a function of its tag, not of injector
  // history or of the chunk that used the arena before it.
  const Batch b = make_batch(4, 64, 8, 12);
  const std::size_t chunk_pairs = 16, n_chunks = 4;
  FaultInjector faults_a(noisy_faults());
  FaultInjector faults_b(noisy_faults());
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.integrity = full_integrity();

  opts.faults = &faults_a;
  PipelineEngine forward(opts);
  std::vector<sw::ChunkResult> in_order;
  for (std::size_t c = 0; c < n_chunks; ++c)
    in_order.push_back(
        forward.run(make_job(b, c, c * chunk_pairs, chunk_pairs)));

  opts.faults = &faults_b;
  PipelineEngine backward(opts);
  for (std::size_t c = n_chunks; c-- > 0;)
    expect_same_result(
        backward.run(make_job(b, c, c * chunk_pairs, chunk_pairs)),
        in_order[c], "chunk " + std::to_string(c));
}

TEST(PipelineEngine, StopErrorSurfacesFromRun) {
  const Batch b = make_batch(6, 32, 8, 12);
  util::CancellationToken cancel;
  cancel.cancel();
  const util::StopCondition stop(&cancel, {});
  EngineOptions opts;
  opts.scheme = kScheme;
  PipelineEngine engine(opts);
  sw::ChunkJob job = make_job(b, 0, 0, 16);
  job.stop = &stop;
  try {
    engine.run(job);
    FAIL() << "run did not throw the stop";
  } catch (const util::StatusError& e) {
    EXPECT_TRUE(util::is_stop_code(e.status().code())) << e.what();
  }
  // The engine stays usable after a stopped job.
  const sw::ChunkResult r = engine.run(make_job(b, 1, 16, 16));
  EXPECT_EQ(r.scores.size(), 16u);
}

// A job whose SWA blocks the watchdog killed is a watchdog run in the
// telemetry registry; the count comes from each job's own killed blocks,
// and a clean run adds nothing.
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
  PipelineEngine stalled(opts);
  stalled.run(make_job(b, 0, 0, 32));
  stalled.run(make_job(b, 1, 32, 32));
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

// A watchdog-killed block is a stage fault even with the integrity checks
// and the self-check off: the screen layer retries its chunk instead of
// reporting the killed block's zeros as scores.
TEST(PipelineEngine, WatchdogKillsReachTheScreenWithoutIntegrity) {
  const Batch b = make_batch(1234, 256, 8, 16);
  FaultConfig fc;
  fc.seed = 31;
  fc.stall_probability = 0.3;
  FaultInjector injector(fc);
  EngineOptions opts;
  opts.scheme = kScheme;
  opts.faults = &injector;
  opts.watchdog_phases = 8 + 16 + 8;  // SWA needs m+n-1; a stall adds 2^20
  PipelineEngine engine(opts);

  sw::ScreenConfig cfg;
  cfg.scheme = kScheme;
  cfg.width = sw::LaneWidth::k32;
  cfg.backend = &engine;
  cfg.chunk_pairs = 32;
  cfg.traceback = false;
  const auto report = sw::try_screen(b.xs, b.ys, cfg);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  ASSERT_TRUE(report->complete());
  const std::uint64_t trips = injector.log().watchdog_trips;
  ASSERT_GT(trips, 0u) << "no block stalled";
  EXPECT_EQ(report->reliability.integrity_faults, trips);
  EXPECT_GT(report->reliability.chunk_retries, 0u);
  for (std::size_t k = 0; k < b.xs.size(); ++k)
    EXPECT_EQ(report->scores[k],
              sw::scheme_max_score(b.xs[k], b.ys[k], kScheme))
        << "pair " << k;
}

// The wordwise device row scores the paper's linear triple; an engine on
// any other scheme refuses it with a typed error instead of scoring
// something else.
TEST(PipelineEngine, WordwiseRowRejectsAffineSchemeTyped) {
  const Batch b = make_batch(11, 8, 8, 12);
  EngineOptions opts;
  opts.scheme.gap_model = sw::GapModel::kAffine;
  opts.scheme.gap_open = 3;
  opts.scheme.gap_extend = 1;
  PipelineEngine engine(opts);
  try {
    engine.run_wordwise(make_job(b, 0, 0, b.xs.size()));
    FAIL() << "an affine engine ran the wordwise row";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput) << e.what();
  }
  // The BPBC stages still run the affine scheme.
  EXPECT_EQ(engine.run_stages(make_job(b, 0, 0, b.xs.size())).scores.size(),
            b.xs.size());
}

}  // namespace
}  // namespace swbpbc::device
