// sw::Backend — the one screening backend interface: opaque and host
// backends against the default path, the base-class submit/collect
// contract, and the overlapped screen loop: an engine-backed try_screen at
// overlap_depth >= 2 must be bit-identical to its serial execution,
// including under fault injection with the full self-check/quarantine
// machinery enabled.
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
#include "sw/bpbc.hpp"
#include "sw/pipeline.hpp"
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

void expect_same_reliability(const ReliabilityReport& a,
                             const ReliabilityReport& b,
                             const std::string& what) {
  EXPECT_EQ(a.lanes_verified, b.lanes_verified) << what;
  EXPECT_EQ(a.mismatches_detected, b.mismatches_detected) << what;
  EXPECT_EQ(a.lanes_recovered, b.lanes_recovered) << what;
  EXPECT_EQ(a.lanes_fell_back, b.lanes_fell_back) << what;
  EXPECT_EQ(a.integrity_checks, b.integrity_checks) << what;
  EXPECT_EQ(a.integrity_faults, b.integrity_faults) << what;
  EXPECT_EQ(a.chunk_retries, b.chunk_retries) << what;
  ASSERT_EQ(a.stage_faults.size(), b.stage_faults.size()) << what;
  for (std::size_t i = 0; i < a.stage_faults.size(); ++i) {
    EXPECT_EQ(a.stage_faults[i].chunk, b.stage_faults[i].chunk) << what;
    EXPECT_EQ(a.stage_faults[i].stage, b.stage_faults[i].stage) << what;
    EXPECT_EQ(a.stage_faults[i].block, b.stage_faults[i].block) << what;
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
  ic.canary_lanes = true;
  ic.checksum_copies = true;
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
        return bpbc_max_scores(xs, ys, kScheme, LaneWidth::k32);
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
  // A depth-1 engine stopped after chunk 1: the settled chunks carry the
  // full run's scores, the rest read zero.
  const Batch b = make_batch(24, 64, 8, 12);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.overlap_depth = 1;
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

// --- base-class submit/collect -------------------------------------------

TEST(BackendV2, BaseSubmitCollectThrowInternal) {
  // Only stream-capable backends overlap; the screen loop never calls
  // submit/collect on any other, and a direct call is a typed error.
  const Batch b = make_batch(25, 16, 8, 12);
  const std::unique_ptr<Backend> host = make_host_backend(
      kScheme, LaneWidth::k32, bulk::Mode::kSerial);
  EXPECT_FALSE(host->caps().streams);
  ChunkJob job;
  job.xs = b.xs;
  job.ys = b.ys;
  try {
    host->submit(job);
    FAIL() << "expected StatusError from submit";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInternal);
  }
  try {
    (void)host->collect();
    FAIL() << "expected StatusError from collect";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInternal);
  }
}

// --- the overlapped screen loop ------------------------------------------

ScreenReport engine_screen(const Batch& b, std::size_t overlap_depth,
                           device::FaultInjector* faults, bool check) {
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = LaneWidth::k32;
  eopts.faults = faults;
  if (faults != nullptr) eopts.integrity = full_integrity();
  eopts.overlap_depth = overlap_depth;
  device::PipelineEngine engine(eopts);

  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 12;
  cfg.width = LaneWidth::k32;
  cfg.chunk_pairs = 16;
  cfg.chunk_retry_limit = 2;
  cfg.backend = &engine;
  cfg.overlap_depth = overlap_depth;
  if (check) {
    cfg.check.enabled = true;
    cfg.check.sample_every = 3;
  }
  return screen(b.xs, b.ys, cfg);
}

TEST(OverlappedScreen, BitIdenticalToSerialExecution) {
  const Batch b = make_batch(26, 112, 8, 12);
  const ScreenReport serial = engine_screen(b, 1, nullptr, false);
  const ScreenReport overlapped = engine_screen(b, 3, nullptr, false);
  expect_same_report(overlapped, serial, "fault-free overlap");
  EXPECT_TRUE(serial.complete());
}

TEST(OverlappedScreen, BitIdenticalToSerialUnderFaultsWithSelfCheck) {
  // The full stack: fault injection, in-band integrity, chunk retries,
  // self-check quarantine/rescore — overlapped vs serial must agree on
  // everything the report states.
  const Batch b = make_batch(27, 112, 8, 12);
  device::FaultInjector faults_serial(noisy_faults());
  device::FaultInjector faults_overlap(noisy_faults());
  const ScreenReport serial = engine_screen(b, 1, &faults_serial, true);
  const ScreenReport overlapped = engine_screen(b, 4, &faults_overlap, true);
  expect_same_report(overlapped, serial, "faulty overlap");
  expect_same_reliability(overlapped.reliability, serial.reliability,
                          "faulty overlap");
  EXPECT_GT(serial.reliability.integrity_checks, 0u);
}

TEST(OverlappedScreen, CancellationLeavesWellFormedPartialReport) {
  const Batch b = make_batch(28, 96, 8, 12);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.overlap_depth = 3;
  device::PipelineEngine engine(eopts);
  util::CancellationToken cancel;
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 16;
  cfg.backend = &engine;
  cfg.overlap_depth = 3;
  cfg.cancel = &cancel;
  cfg.progress = [&cancel](const ChunkProgress& p) {
    if (p.chunk == 1) cancel.cancel();
  };
  const ScreenReport report = screen(b.xs, b.ys, cfg);
  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(report.complete());
  // Chunks 0 and 1 settled; every later chunk is untouched and zero —
  // even though the overlap window had already submitted some of them.
  for (std::size_t c = 0; c < report.chunks.size(); ++c) {
    const ChunkOutcome& outcome = report.chunks[c];
    EXPECT_EQ(outcome.completed, c <= 1) << "chunk " << c;
    if (!outcome.completed) {
      for (std::size_t k = outcome.begin; k < outcome.end; ++k)
        EXPECT_EQ(report.scores[k], 0u) << "pair " << k;
    }
  }
  // The same engine survives the drained tail and runs a fresh complete
  // screen afterwards.
  cfg.cancel = nullptr;
  cfg.progress = nullptr;
  const ScreenReport again = screen(b.xs, b.ys, cfg);
  EXPECT_TRUE(again.complete());
  EXPECT_TRUE(again.status.ok());
}

}  // namespace
}  // namespace swbpbc::sw
