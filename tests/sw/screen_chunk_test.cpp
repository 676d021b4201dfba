// Survivable long-run screening: chunked streaming, cooperative
// cancellation/deadlines with well-formed partial reports, in-band stage
// integrity with per-chunk quarantine/retry, and checkpoint/resume
// (including the chunked 100-campaign fault drill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "util/cancel.hpp"
#include "util/checkpoint.hpp"
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

std::vector<std::uint32_t> scalar_refs(const Batch& b,
                                       const ScoreParams& params) {
  std::vector<std::uint32_t> refs;
  refs.reserve(b.xs.size());
  for (std::size_t k = 0; k < b.xs.size(); ++k)
    refs.push_back(max_score(b.xs[k], b.ys[k], params));
  return refs;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_screen_" + name;
}

// --- chunked execution is equivalence-preserving -------------------------

TEST(ChunkedScreen, MatchesUnchunkedBitIdentically) {
  const Batch b = make_batch(11, 37, 8, 16);
  ScreenConfig whole;
  whole.params = kParams;
  whole.threshold = 10;
  const ScreenReport full = screen(b.xs, b.ys, whole);

  for (std::size_t chunk : {1u, 5u, 16u, 37u, 64u}) {
    ScreenConfig cfg = whole;
    cfg.chunk_pairs = chunk;
    const ScreenReport chunked = screen(b.xs, b.ys, cfg);
    EXPECT_EQ(chunked.scores, full.scores) << "chunk_pairs=" << chunk;
    ASSERT_EQ(chunked.hits.size(), full.hits.size());
    for (std::size_t h = 0; h < full.hits.size(); ++h) {
      EXPECT_EQ(chunked.hits[h].index, full.hits[h].index);
      EXPECT_EQ(chunked.hits[h].bpbc_score, full.hits[h].bpbc_score);
      EXPECT_EQ(chunked.hits[h].detail.score, full.hits[h].detail.score);
    }
    EXPECT_TRUE(chunked.status.ok());
    EXPECT_TRUE(chunked.complete());
    EXPECT_EQ(chunked.chunks.size(), (37 + chunk - 1) / chunk);
  }
}

TEST(ChunkedScreen, ProgressCallbackSeesEveryChunkInOrder) {
  const Batch b = make_batch(12, 20, 8, 12);
  std::vector<ChunkProgress> seen;
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 8;
  cfg.chunk_pairs = 6;  // 20 pairs -> chunks of 6,6,6,2
  cfg.progress = [&seen](const ChunkProgress& p) { seen.push_back(p); };
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  ASSERT_TRUE(report.complete());
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_EQ(seen[c].chunk, c);
    EXPECT_EQ(seen[c].chunks_total, 4u);
    EXPECT_EQ(seen[c].begin, c * 6);
    EXPECT_FALSE(seen[c].resumed);
  }
  EXPECT_EQ(seen.back().end, 20u);
}

// --- cooperative cancellation and deadlines ------------------------------

TEST(ScreenCancel, CancelFromProgressYieldsWellFormedPartialReport) {
  const Batch b = make_batch(13, 30, 8, 16);
  const std::vector<std::uint32_t> refs = scalar_refs(b, kParams);
  util::CancellationToken token;
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 10;
  cfg.cancel = &token;
  cfg.progress = [&token](const ChunkProgress& p) {
    if (p.chunk == 0) token.cancel();
  };
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.chunks.size(), 3u);
  EXPECT_TRUE(report.chunks[0].completed);
  EXPECT_FALSE(report.chunks[1].completed);
  EXPECT_FALSE(report.chunks[2].completed);
  // Completed region matches the reference; untouched region reads zero.
  ASSERT_EQ(report.scores.size(), 30u);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_EQ(report.scores[k], refs[k]);
  for (std::size_t k = 10; k < 30; ++k) EXPECT_EQ(report.scores[k], 0u);
  // No hit may come from the untouched region.
  for (const ScreenHit& hit : report.hits) EXPECT_LT(hit.index, 10u);
}

TEST(ScreenCancel, ExpiredDeadlineCompletesNothing) {
  const Batch b = make_batch(14, 12, 8, 12);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.chunk_pairs = 4;
  cfg.deadline = util::Deadline::after_ms(0.0);
  const ScreenReport report = screen(b.xs, b.ys, cfg);
  EXPECT_EQ(report.status.code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(report.complete());
  for (const ChunkOutcome& c : report.chunks) EXPECT_FALSE(c.completed);
  EXPECT_TRUE(report.hits.empty());
}

// Cancellation raised *inside* the device pipeline (between lock-step
// phases) must unwind through launch -> engine -> screen and still
// produce a typed partial report, not a torn one.
TEST(ScreenCancel, CancelBetweenDevicePhasesYieldsPartialReport) {
  const Batch b = make_batch(15, 24, 8, 16);
  const std::vector<std::uint32_t> refs = scalar_refs(b, kParams);
  util::CancellationToken token;

  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = LaneWidth::k32;
  eopts.mode = bulk::Mode::kSerial;
  device::PipelineEngine engine(eopts);
  auto chunks_run = std::make_shared<int>(0);
  test_support::FnBackend backend(
      [&token, &engine, chunks_run](const ChunkJob& job) {
        // Second chunk: trip the token after the backend has started, so
        // the stop is observed at a device phase boundary, not the chunk
        // boundary.
        if ((*chunks_run)++ == 1) token.cancel();
        return engine.run(job);
      });

  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.width = LaneWidth::k32;
  cfg.chunk_pairs = 8;
  cfg.cancel = &token;
  cfg.backend = &backend;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.chunks.size(), 3u);
  EXPECT_TRUE(report.chunks[0].completed);
  EXPECT_FALSE(report.chunks[1].completed);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(report.scores[k], refs[k]);
  for (std::size_t k = 8; k < 24; ++k) EXPECT_EQ(report.scores[k], 0u);
}

// Cancellation during the self-check verify loop of a later chunk: the
// earlier chunk's accounting is retained and the report stays balanced.
TEST(ScreenCancel, CancelDuringVerifyKeepsReportBalanced) {
  const Batch b = make_batch(16, 20, 8, 16);
  util::CancellationToken token;
  auto chunks_run = std::make_shared<int>(0);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.chunk_pairs = 10;
  cfg.cancel = &token;
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;
  auto backend = test_support::scores_backend(
      [&token, chunks_run](std::span<const Sequence> xs,
                           std::span<const Sequence> ys) {
        std::vector<std::uint32_t> scores;
        for (std::size_t k = 0; k < xs.size(); ++k)
          scores.push_back(max_score(xs[k], ys[k], kParams));
        // After producing the second chunk's scores, cancel: the stop
        // fires inside that chunk's verify loop.
        if ((*chunks_run)++ == 1) token.cancel();
        return scores;
      });
  cfg.backend = &backend;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_TRUE(report.chunks[0].completed);
  EXPECT_FALSE(report.chunks[1].completed);
  EXPECT_EQ(report.reliability.lanes_verified, 10u);  // chunk 0 only
  EXPECT_TRUE(report.reliability.balanced());
}

// Deadline tripping between hit alignment calls: scores and hits are
// complete, but trailing hits stay coarse (detailed == false).
TEST(ScreenCancel, StopDuringTracebackLeavesHitsCoarse) {
  const Batch b = make_batch(17, 24, 8, 16);
  util::CancellationToken token;
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 1;  // plenty of hits
  cfg.traceback = true;
  cfg.chunk_pairs = 24;
  cfg.cancel = &token;
  cfg.progress = [&token](const ChunkProgress& p) {
    if (p.chunk + 1 == p.chunks_total) token.cancel();  // after last chunk
  };
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.status.code(), util::ErrorCode::kCancelled);
  EXPECT_TRUE(report.complete());  // every chunk scored before the cancel
  EXPECT_FALSE(report.hits.empty());
  for (const ScreenHit& hit : report.hits) EXPECT_FALSE(hit.detailed);
  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
}

// --- checkpoint / resume -------------------------------------------------

TEST(ScreenResume, InterruptedRunResumesBitIdentically) {
  const Batch b = make_batch(18, 40, 8, 16);
  ScreenConfig base;
  base.params = kParams;
  base.threshold = 10;
  base.traceback = true;
  base.chunk_pairs = 10;

  const ScreenReport uninterrupted = screen(b.xs, b.ys, base);

  // Run 1: cancelled after two chunks, checkpointing as it goes.
  const std::string ckpt = temp_path("resume.bin");
  util::CancellationToken token;
  ScreenConfig first = base;
  first.checkpoint_path = ckpt;
  first.cancel = &token;
  first.progress = [&token](const ChunkProgress& p) {
    if (p.chunk == 1) token.cancel();
  };
  const ScreenReport partial = screen(b.xs, b.ys, first);
  EXPECT_EQ(partial.status.code(), util::ErrorCode::kCancelled);
  EXPECT_TRUE(partial.chunks[0].completed);
  EXPECT_TRUE(partial.chunks[1].completed);
  EXPECT_FALSE(partial.chunks[2].completed);

  // Run 2: resume. The first two chunks must be satisfied from the stream
  // (not recomputed) and the final report must equal the uninterrupted one.
  std::size_t resumed_chunks = 0;
  ScreenConfig second = base;
  second.resume_path = ckpt;
  second.progress = [&resumed_chunks](const ChunkProgress& p) {
    if (p.resumed) ++resumed_chunks;
  };
  const ScreenReport resumed = screen(b.xs, b.ys, second);

  EXPECT_TRUE(resumed.status.ok());
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed_chunks, 2u);
  EXPECT_TRUE(resumed.chunks[0].resumed);
  EXPECT_TRUE(resumed.chunks[1].resumed);
  EXPECT_FALSE(resumed.chunks[2].resumed);
  EXPECT_EQ(resumed.scores, uninterrupted.scores);
  ASSERT_EQ(resumed.hits.size(), uninterrupted.hits.size());
  for (std::size_t h = 0; h < resumed.hits.size(); ++h) {
    EXPECT_EQ(resumed.hits[h].index, uninterrupted.hits[h].index);
    EXPECT_EQ(resumed.hits[h].bpbc_score, uninterrupted.hits[h].bpbc_score);
    EXPECT_EQ(resumed.hits[h].detail.score,
              uninterrupted.hits[h].detail.score);
    EXPECT_EQ(resumed.hits[h].detail.x_begin,
              uninterrupted.hits[h].detail.x_begin);
    EXPECT_EQ(resumed.hits[h].detail.y_begin,
              uninterrupted.hits[h].detail.y_begin);
  }
  std::remove(ckpt.c_str());
}

TEST(ScreenResume, ResumeAndCheckpointMaySharePath) {
  const Batch b = make_batch(19, 18, 8, 12);
  const std::string ckpt = temp_path("shared.bin");
  ScreenConfig base;
  base.params = kParams;
  base.threshold = 8;
  base.chunk_pairs = 6;

  util::CancellationToken token;
  ScreenConfig first = base;
  first.checkpoint_path = ckpt;
  first.cancel = &token;
  first.progress = [&token](const ChunkProgress& p) {
    if (p.chunk == 0) token.cancel();
  };
  (void)screen(b.xs, b.ys, first);

  ScreenConfig second = base;
  second.resume_path = ckpt;
  second.checkpoint_path = ckpt;  // rewrite in place while resuming
  const ScreenReport report = screen(b.xs, b.ys, second);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.chunks[0].resumed);

  // The rewritten stream now covers every chunk.
  ScreenConfig third = base;
  third.resume_path = ckpt;
  const ScreenReport full = screen(b.xs, b.ys, third);
  EXPECT_TRUE(full.complete());
  for (const ChunkOutcome& c : full.chunks) EXPECT_TRUE(c.resumed);
  EXPECT_EQ(full.scores, report.scores);
  std::remove(ckpt.c_str());
}

TEST(ScreenResume, WrongBatchIsCheckpointMismatch) {
  const Batch b = make_batch(20, 16, 8, 12);
  const std::string ckpt = temp_path("wrongbatch.bin");
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.chunk_pairs = 8;
  cfg.checkpoint_path = ckpt;
  (void)screen(b.xs, b.ys, cfg);

  // Same shape, different content: the fingerprint must reject it.
  const Batch other = make_batch(21, 16, 8, 12);
  ScreenConfig resume = cfg;
  resume.checkpoint_path.clear();
  resume.resume_path = ckpt;
  const auto result = try_screen(other.xs, other.ys, resume);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kCheckpointMismatch);

  // Different chunking of the *same* batch is a different stream too.
  ScreenConfig rechunked = resume;
  rechunked.chunk_pairs = 4;
  const auto result2 = try_screen(b.xs, b.ys, rechunked);
  ASSERT_FALSE(result2.has_value());
  EXPECT_EQ(result2.status().code(), util::ErrorCode::kCheckpointMismatch);

  // Recovery path: dropping the resume source recomputes from scratch.
  ScreenConfig fresh = resume;
  fresh.resume_path.clear();
  const ScreenReport report = screen(other.xs, other.ys, fresh);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.scores, scalar_refs(other, kParams));
  std::remove(ckpt.c_str());
}

TEST(ScreenResume, CorruptStreamIsTypedErrorThenRecomputes) {
  const Batch b = make_batch(22, 12, 8, 12);
  const std::string ckpt = temp_path("corrupt.bin");
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.chunk_pairs = 6;
  cfg.checkpoint_path = ckpt;
  (void)screen(b.xs, b.ys, cfg);

  // Flip a payload byte on disk.
  {
    std::FILE* f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24 + 24 + 2, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }

  ScreenConfig resume = cfg;
  resume.checkpoint_path.clear();
  resume.resume_path = ckpt;
  const auto result = try_screen(b.xs, b.ys, resume);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kCheckpointCorrupt);

  ScreenConfig fresh = resume;
  fresh.resume_path.clear();
  const ScreenReport report = screen(b.xs, b.ys, fresh);
  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
  std::remove(ckpt.c_str());
}

TEST(ScreenResume, TornTailSalvageResumesCleanPrefix) {
  const Batch b = make_batch(24, 30, 8, 14);
  const std::string ckpt = temp_path("torntail.bin");
  ScreenConfig base;
  base.params = kParams;
  base.threshold = 10;
  base.chunk_pairs = 10;

  ScreenConfig writer = base;
  writer.checkpoint_path = ckpt;
  const ScreenReport full = screen(b.xs, b.ys, writer);
  ASSERT_TRUE(full.complete());

  // Tear the final record, as a process dying mid-append would.
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::vector<char> data{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    in.close();
    ASSERT_GT(data.size(), 6u);
    data.resize(data.size() - 6);
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  // Strict resume refuses the stream outright.
  ScreenConfig strict = base;
  strict.resume_path = ckpt;
  const auto refused = try_screen(b.xs, b.ys, strict);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.status().code(), util::ErrorCode::kCheckpointCorrupt);

  // Salvage resume recovers the two intact chunks and recomputes the torn
  // third; the result is bit-identical to the uninterrupted run.
  std::size_t resumed_chunks = 0;
  ScreenConfig salvage = base;
  salvage.resume_path = ckpt;
  salvage.resume_salvage_torn_tail = true;
  salvage.progress = [&resumed_chunks](const ChunkProgress& p) {
    if (p.resumed) ++resumed_chunks;
  };
  const ScreenReport resumed = screen(b.xs, b.ys, salvage);
  EXPECT_TRUE(resumed.status.ok());
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed_chunks, 2u);
  EXPECT_FALSE(resumed.chunks[2].resumed);
  EXPECT_EQ(resumed.scores, full.scores);

  // Salvage is NOT a rot amnesty: a flipped byte inside a complete record
  // still rejects even with the flag on.
  {
    std::FILE* f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24 + 24 + 1, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }
  const auto rotted = try_screen(b.xs, b.ys, salvage);
  ASSERT_FALSE(rotted.has_value());
  EXPECT_EQ(rotted.status().code(), util::ErrorCode::kCheckpointCorrupt);
  std::remove(ckpt.c_str());
}

// --- the chunked + in-band-integrity fault drill -------------------------
//
// 100 seeded campaigns through the device PipelineEngine with the full
// fault model (including flipped copy words), chunked execution and
// in-band stage integrity on. Every campaign must recover to the scalar
// reference; every in-band detection is attributed
// to a (chunk, stage); and a chunk retry resubmits only that chunk's
// lanes — never the whole batch.
TEST(FaultDrill, ChunkedIntegrityCampaignsRecoverAndAttribute) {
  constexpr std::size_t kCampaigns = 100;
  constexpr std::size_t kCount = 48, kM = 8, kN = 24, kChunk = 16;

  std::size_t campaigns_with_faults = 0;
  std::uint64_t total_stage_faults = 0;
  std::uint64_t total_chunk_retries = 0;
  for (std::size_t campaign = 0; campaign < kCampaigns; ++campaign) {
    const Batch b = make_batch(3000 + campaign, kCount, kM, kN);
    const std::vector<std::uint32_t> refs = scalar_refs(b, kParams);

    device::FaultConfig fault;
    fault.seed = 0xC0FFEE00 + campaign;
    fault.flip_probability = 1e-3;
    fault.drop_sync_probability = 0.05;
    fault.stall_probability = 0.05;
    fault.copy_flip_probability = 2e-3;
    device::FaultInjector injector(fault);

    device::EngineOptions eopts;
    eopts.scheme = kScheme;
    eopts.width = LaneWidth::k32;
    eopts.mode = bulk::Mode::kSerial;
    eopts.faults = &injector;
    eopts.watchdog_phases = kM + kN + 16;
    eopts.integrity.enabled = true;
    eopts.integrity.sample_every = 1;
    device::PipelineEngine engine(eopts);

    ScreenConfig cfg;
    cfg.params = kParams;
    cfg.threshold = 12;
    cfg.width = LaneWidth::k32;
    cfg.traceback = false;
    cfg.chunk_pairs = kChunk;
    cfg.chunk_retry_limit = 3;
    cfg.backend = &engine;
    cfg.check.enabled = true;
    cfg.check.sample_every = 1;  // self-check backstop: total detection
    cfg.check.max_retries = 4;

    const ScreenReport report = screen(b.xs, b.ys, cfg);
    const auto& rel = report.reliability;

    ASSERT_EQ(report.scores, refs)
        << "campaign " << campaign << ": recovered scores diverge; "
        << rel.summary();
    ASSERT_TRUE(rel.balanced())
        << "campaign " << campaign << ": " << rel.summary();
    ASSERT_TRUE(report.complete());

    // Every in-band detection is attributed to a valid (chunk, stage).
    EXPECT_EQ(rel.integrity_faults, rel.stage_faults.size());
    for (const StageFault& f : rel.stage_faults) {
      EXPECT_LT(f.chunk, kCount / kChunk) << "campaign " << campaign;
      EXPECT_NE(stage_name(f.stage), std::string("?"));
    }
    // Integrity checks actually ran, and a chunk retry resubmits exactly
    // one chunk's worth of lanes — the point of chunked quarantine.
    EXPECT_GT(rel.integrity_checks, 0u);
    EXPECT_EQ(rel.lanes_resubmitted, rel.chunk_retries * kChunk);
    if (rel.chunk_retries > 0) {
      EXPECT_LT(rel.lanes_resubmitted / rel.chunk_retries, kCount);
    }

    for (const ScreenHit& hit : report.hits)
      EXPECT_EQ(hit.bpbc_score, refs[hit.index]);

    if (injector.log().total() > 0) ++campaigns_with_faults;
    total_stage_faults += rel.integrity_faults;
    total_chunk_retries += rel.chunk_retries;
  }
  // The fault model must bite, the in-band checks must catch a good share
  // of it, and retries must actually have happened for the drill to mean
  // anything.
  EXPECT_GE(campaigns_with_faults, kCampaigns / 2);
  EXPECT_GT(total_stage_faults, 0u);
  EXPECT_GT(total_chunk_retries, 0u);
}

// Integrity checks on a healthy pipeline: no faults, no retries, scores
// equal the reference, and the checks report being evaluated.
TEST(Integrity, CleanDeviceRunDetectsNothing) {
  const Batch b = make_batch(23, 40, 8, 16);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = LaneWidth::k32;
  eopts.mode = bulk::Mode::kSerial;
  eopts.integrity.enabled = true;
  eopts.integrity.sample_every = 1;
  device::PipelineEngine engine(eopts);

  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.width = LaneWidth::k32;
  cfg.chunk_pairs = 16;
  cfg.backend = &engine;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
  EXPECT_GT(report.reliability.integrity_checks, 0u);
  EXPECT_EQ(report.reliability.integrity_faults, 0u);
  EXPECT_EQ(report.reliability.chunk_retries, 0u);
  EXPECT_TRUE(report.reliability.stage_faults.empty());
}

}  // namespace
}  // namespace swbpbc::sw
