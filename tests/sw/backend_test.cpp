// sw::Backend — the one screening backend interface: opaque, host and
// device-engine backends against the default host path. An engine-backed
// screen must match the host screen bit for bit, and under fault injection
// with the full self-check/quarantine machinery enabled it must still
// recover the fault-free scores.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "fn_backend.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

constexpr ScoreParams kParams{2, 1, 1};
const ScoringScheme kScheme;  // 2/1/1 linear

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

void expect_same_report(const ScreenReport& a, const ScreenReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.scores, b.scores) << what;
  EXPECT_EQ(a.status.code(), b.status.code()) << what;
  ASSERT_EQ(a.hits.size(), b.hits.size()) << what;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].index, b.hits[i].index) << what;
    EXPECT_EQ(a.hits[i].bpbc_score, b.hits[i].bpbc_score) << what;
  }
  ASSERT_EQ(a.chunks.size(), b.chunks.size()) << what;
  for (std::size_t c = 0; c < a.chunks.size(); ++c) {
    EXPECT_EQ(a.chunks[c].completed, b.chunks[c].completed) << what;
    EXPECT_EQ(a.chunks[c].resumed, b.chunks[c].resumed) << what;
    EXPECT_EQ(a.chunks[c].retries, b.chunks[c].retries) << what;
  }
}

device::FaultConfig noisy_faults() {
  device::FaultConfig fc;
  fc.seed = 99;
  fc.flip_probability = 0.008;
  fc.drop_sync_probability = 0.04;
  fc.copy_flip_probability = 0.004;
  return fc;
}

device::IntegrityConfig full_integrity() {
  device::IntegrityConfig ic;
  ic.enabled = true;
  ic.sample_every = 4;
  return ic;
}

// --- explicit backends against the default path --------------------------

TEST(BackendV2, OpaqueBackendMatchesDefaultPath) {
  // A backend without a phase split: scores match the default host path,
  // and the screen loop books the whole call on SWA.
  const Batch b = make_batch(21, 48, 8, 16);
  ScreenConfig host;
  host.params = kParams;
  host.threshold = 14;
  host.chunk_pairs = 16;
  const ScreenReport want = screen(b.xs, b.ys, host);

  auto opaque = test_support::scores_backend(
      [](std::span<const Sequence> xs, std::span<const Sequence> ys) {
        return try_scheme_max_scores(xs, ys, kScheme, LaneWidth::k32).value();
      });
  ScreenConfig cfg = host;
  cfg.backend = &opaque;
  const ScreenReport got = screen(b.xs, b.ys, cfg);
  expect_same_report(got, want, "opaque backend");
  EXPECT_EQ(got.bpbc.w2b_ms, 0.0);
  EXPECT_EQ(got.bpbc.b2w_ms, 0.0);
  EXPECT_GT(got.bpbc.swa_ms, 0.0);
}

TEST(BackendV2, HostBackendMatchesDefaultPath) {
  const Batch b = make_batch(22, 40, 8, 16);
  ScreenConfig legacy;
  legacy.params = kParams;
  legacy.threshold = 12;
  legacy.chunk_pairs = 10;
  const ScreenReport want = screen(b.xs, b.ys, legacy);

  ScreenConfig cfg = legacy;
  const std::unique_ptr<Backend> host = make_host_backend(
      kScheme, cfg.width, cfg.mode);
  cfg.backend = host.get();
  const ScreenReport got = screen(b.xs, b.ys, cfg);
  expect_same_report(got, want, "host backend");
  // Both paths attribute per-phase timings (not everything on SWA).
  EXPECT_GT(got.bpbc.w2b_ms + got.bpbc.b2w_ms, 0.0);
}

TEST(BackendV2, CancellationThroughSerialEngine) {
  // An engine-backed screen stopped after chunk 1: the settled chunks
  // carry the full run's scores, the rest read zero.
  const Batch b = make_batch(24, 64, 8, 12);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  device::PipelineEngine engine(eopts);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 16;
  cfg.backend = &engine;
  const ScreenReport full = screen(b.xs, b.ys, cfg);

  util::CancellationToken cancel;
  cfg.cancel = &cancel;
  cfg.progress = [&cancel](const ChunkProgress& p) {
    if (p.chunk == 1) cancel.cancel();
  };
  const ScreenReport report = screen(b.xs, b.ys, cfg);
  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(report.complete());
  for (const ChunkOutcome& outcome : report.chunks) {
    EXPECT_EQ(outcome.completed, outcome.end <= 32) << outcome.begin;
    for (std::size_t k = outcome.begin; k < outcome.end; ++k)
      EXPECT_EQ(report.scores[k], outcome.completed ? full.scores[k] : 0u)
          << "pair " << k;
  }
}

// --- engine-backed screens ----------------------------------------------

ScreenConfig chunked_config() {
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 12;
  cfg.width = LaneWidth::k32;
  cfg.chunk_pairs = 16;
  cfg.chunk_retry_limit = 2;
  return cfg;
}

ScreenReport engine_screen(const Batch& b, device::FaultInjector* faults) {
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = LaneWidth::k32;
  eopts.faults = faults;
  if (faults != nullptr) eopts.integrity = full_integrity();
  device::PipelineEngine engine(eopts);

  ScreenConfig cfg = chunked_config();
  cfg.backend = &engine;
  if (faults != nullptr) {
    cfg.check.enabled = true;
    cfg.check.sample_every = 1;  // verify every lane: total detection
  }
  return screen(b.xs, b.ys, cfg);
}

TEST(EngineScreen, MatchesHostScreen) {
  const Batch b = make_batch(26, 112, 8, 12);
  const ScreenReport host = screen(b.xs, b.ys, chunked_config());
  const ScreenReport engine = engine_screen(b, nullptr);
  expect_same_report(engine, host, "fault-free engine");
  EXPECT_TRUE(engine.complete());
}

TEST(EngineScreen, FaultyScreenWithSelfCheckRecoversFaultFreeScores) {
  // The full stack: fault injection, in-band integrity, chunk retries,
  // self-check quarantine/rescore — the report must state the fault-free
  // scores and hits.
  const Batch b = make_batch(27, 112, 8, 12);
  device::FaultInjector faults(noisy_faults());
  const ScreenReport faulty = engine_screen(b, &faults);
  const ScreenReport clean = engine_screen(b, nullptr);
  EXPECT_TRUE(faulty.complete());
  EXPECT_EQ(faulty.scores, clean.scores);
  ASSERT_EQ(faulty.hits.size(), clean.hits.size());
  for (std::size_t i = 0; i < faulty.hits.size(); ++i) {
    EXPECT_EQ(faulty.hits[i].index, clean.hits[i].index);
    EXPECT_EQ(faulty.hits[i].bpbc_score, clean.hits[i].bpbc_score);
  }
  const ReliabilityReport& rel = faulty.reliability;
  EXPECT_GT(rel.integrity_checks, 0u);
  EXPECT_GT(rel.integrity_faults + rel.mismatches_detected, 0u)
      << "fault rates too low to exercise anything";
  EXPECT_TRUE(rel.balanced()) << rel.summary();
}

// The suite name dates from the overlapped chunk pipeline; the screen now
// runs every chunk synchronously on the engine, and the report it leaves on
// cancellation must still be well formed.
TEST(OverlappedScreen, CancellationLeavesWellFormedPartialReport) {
  const Batch b = make_batch(28, 96, 8, 12);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  device::PipelineEngine engine(eopts);
  util::CancellationToken cancel;
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 16;
  cfg.backend = &engine;
  const ScreenReport full = screen(b.xs, b.ys, cfg);

  cfg.cancel = &cancel;
  cfg.progress = [&cancel](const ChunkProgress& p) {
    if (p.chunk == 1) cancel.cancel();
  };
  const ScreenReport report = screen(b.xs, b.ys, cfg);
  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(report.complete());
  // Chunks 0 and 1 settled; every later chunk is untouched and zero.
  for (std::size_t c = 0; c < report.chunks.size(); ++c) {
    const ChunkOutcome& outcome = report.chunks[c];
    EXPECT_EQ(outcome.completed, c <= 1) << "chunk " << c;
    if (!outcome.completed) {
      for (std::size_t k = outcome.begin; k < outcome.end; ++k)
        EXPECT_EQ(report.scores[k], 0u) << "pair " << k;
    }
  }
  // The same engine runs a fresh complete screen afterwards.
  cfg.cancel = nullptr;
  cfg.progress = nullptr;
  const ScreenReport again = screen(b.xs, b.ys, cfg);
  EXPECT_TRUE(again.complete());
  EXPECT_TRUE(again.status.ok());
  EXPECT_EQ(again.scores, full.scores);
}

}  // namespace
}  // namespace swbpbc::sw
