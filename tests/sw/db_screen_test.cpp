// Screening from the pre-transposed database store: bit-identity with the
// in-memory path at every lane width, quarantine + re-ingest of corrupted
// shards (mapping-injected and on-disk rot) with ReliabilityReport
// accounting, in-memory fallback for jobs the store cannot serve, and the
// typed rejection of stale or mismatched databases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/fault.hpp"
#include "db/reader.hpp"
#include "encoding/random.hpp"
#include "sw/db_backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "util/status.hpp"
#include "fn_backend.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

constexpr ScoreParams kParams{2, 1, 1};
const ScoringScheme kScheme;  // 2/1/1 linear

struct Fixture {
  std::vector<Sequence> xs;
  std::vector<Sequence> ys;
  std::string db_path;
};

Fixture make_fixture(const std::string& name, std::size_t count,
                     std::size_t m, std::size_t n, std::uint64_t seed = 21) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.xs = encoding::random_sequences(rng, count, m);
  f.ys = encoding::random_sequences(rng, count, n);
  f.db_path = testing::TempDir() + "swbpbc_dbscreen_" + name;
  EXPECT_TRUE(db::build_database(f.ys, f.db_path).ok());
  return f;
}

ScreenConfig base_config(LaneWidth width = LaneWidth::k64) {
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 8;
  cfg.width = width;
  return cfg;
}

TEST(DbScreen, MatchesInMemoryAtEveryLaneWidth) {
  const Fixture f = make_fixture("widths.swdb", 190, 12, 48);
  for (LaneWidth width :
       {LaneWidth::k32, LaneWidth::k64, LaneWidth::k128, LaneWidth::k256,
        LaneWidth::k512, LaneWidth::kScalarWide}) {
    ScreenConfig plain = base_config(width);
    const ScreenReport expect = screen(f.xs, f.ys, plain);

    auto reader = db::Reader::open(f.db_path);
    ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
    ScreenConfig cfg = base_config(width);
    cfg.database = &*reader;
    const ScreenReport got = screen(f.xs, f.ys, cfg);

    EXPECT_EQ(got.scores, expect.scores)
        << "width=" << lane_width_name(width);
    EXPECT_EQ(got.hits.size(), expect.hits.size());
    EXPECT_EQ(got.reliability.db_shards_quarantined, 0u);
    EXPECT_EQ(got.reliability.db_pairs_fallback, 0u);
    // 190 entries fill three 64-lane shards; each is served once, also
    // at 32 lanes, where two lane groups read every shard.
    EXPECT_EQ(got.reliability.db_shards_served, 3u)
        << "width=" << lane_width_name(width);
  }
  std::remove(f.db_path.c_str());
}

// The store runs the same SchemeBpbcAligner as the in-memory path, so an
// affine scheme screens from it bit-identically: whole-batch, in
// shard-aligned and misaligned chunks, and with one shard corrupted.
TEST(DbScreen, AffineSchemeMatchesInMemoryAtEveryLaneWidth) {
  const Fixture f = make_fixture("affine.swdb", 190, 12, 48);
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  struct Case {
    const char* name;
    std::size_t chunk_pairs;
    bool flip_shard;
    std::uint64_t served, quarantined, fallback;
  };
  const Case cases[] = {
      {"whole-batch", 0, false, 3, 0, 0},
      {"64-pair chunks", 64, false, 3, 0, 0},
      // Only the chunk at pair 0 starts on a shard; 140 pairs fall back.
      {"50-pair chunks", 50, false, 1, 0, 140},
      {"flipped shard 1", 0, true, 2, 1, 0},
  };
  for (LaneWidth width :
       {LaneWidth::k32, LaneWidth::k64, LaneWidth::k128, LaneWidth::k256,
        LaneWidth::k512, LaneWidth::kScalarWide}) {
    ScreenConfig plain = base_config(width);
    plain.scheme = affine;
    const ScreenReport expect = screen(f.xs, f.ys, plain);
    for (std::size_t k = 0; k < f.xs.size(); k += 7)
      ASSERT_EQ(expect.scores[k], scheme_max_score(f.xs[k], f.ys[k], affine))
          << "pair " << k;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(lane_width_name(width)) + " " + c.name);
      db::FaultConfig fc;
      fc.seed = 7;
      fc.shard_flip_probability = c.flip_shard ? 1.0 : 0.0;
      fc.target_shard = 1;
      db::FaultInjector injector(fc);
      auto reader = db::Reader::open(f.db_path, {.fault = &injector});
      ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
      ScreenConfig cfg = plain;
      cfg.database = &*reader;
      cfg.chunk_pairs = c.chunk_pairs;
      const ScreenReport got = screen(f.xs, f.ys, cfg);
      EXPECT_EQ(got.scores, expect.scores);
      EXPECT_EQ(got.hits.size(), expect.hits.size());
      EXPECT_EQ(got.reliability.db_shards_served, c.served);
      EXPECT_EQ(got.reliability.db_shards_quarantined, c.quarantined);
      EXPECT_EQ(got.reliability.db_pairs_fallback, c.fallback);
    }
  }
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, MatrixSchemeIsRejectedByTheStoreBackend) {
  const Fixture f = make_fixture("matrix.swdb", 64, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  DbBackendOptions opts;
  opts.scheme.matrix = blosum62();
  try {
    (void)make_db_backend(*reader, opts);
    ADD_FAILURE() << "a matrix scheme was accepted";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(e.status().message().find("try_scheme_db_max_scores"),
              std::string::npos);
  }
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, ChunkedServingMatchesWholeBatch) {
  const Fixture f = make_fixture("chunked.swdb", 256, 10, 40);
  const ScreenReport expect = screen(f.xs, f.ys, base_config());

  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  cfg.chunk_pairs = 64;  // shard-aligned: every chunk served zero-copy
  const ScreenReport got = screen(f.xs, f.ys, cfg);
  EXPECT_EQ(got.scores, expect.scores);
  EXPECT_EQ(got.reliability.db_shards_served, 4u);
  EXPECT_EQ(got.reliability.db_pairs_fallback, 0u);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, MisalignedChunksFallBackInMemoryBitIdentically) {
  const Fixture f = make_fixture("misaligned.swdb", 130, 10, 40);
  const ScreenReport expect = screen(f.xs, f.ys, base_config());

  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  cfg.chunk_pairs = 50;  // not a multiple of 64: store cannot serve these
  const ScreenReport got = screen(f.xs, f.ys, cfg);
  EXPECT_EQ(got.scores, expect.scores);
  EXPECT_GT(got.reliability.db_pairs_fallback, 0u);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, OnDiskRotQuarantinesOneShardScoresUnchanged) {
  const Fixture f = make_fixture("rot.swdb", 256, 12, 48);
  const ScreenReport expect = screen(f.xs, f.ys, base_config());
  ASSERT_TRUE(db::corrupt_shard_for_testing(f.db_path, 2, 9, 4).ok());

  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  const ScreenReport got = screen(f.xs, f.ys, cfg);

  EXPECT_EQ(got.scores, expect.scores);
  EXPECT_EQ(got.reliability.db_shards_quarantined, 1u);
  EXPECT_EQ(got.reliability.db_pairs_reingested, 64u);
  EXPECT_EQ(got.reliability.db_shards_served, 3u);
  EXPECT_TRUE(reader->shard_quarantined(2));
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, InjectedFaultDrillQuarantinesOnlyTargetShard) {
  const Fixture f = make_fixture("drill.swdb", 320, 12, 48);
  const ScreenReport expect = screen(f.xs, f.ys, base_config());

  db::FaultConfig fc;
  fc.seed = 42;
  fc.shard_flip_probability = 1.0;
  fc.target_shard = 3;
  db::FaultInjector injector(fc);
  auto reader = db::Reader::open(f.db_path, {.fault = &injector});
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();

  ScreenConfig cfg = base_config(LaneWidth::k256);  // wide gather path
  cfg.database = &*reader;
  cfg.chunk_pairs = 128;
  const ScreenReport got = screen(f.xs, f.ys, cfg);

  EXPECT_EQ(got.scores, expect.scores);
  EXPECT_EQ(got.reliability.db_shards_quarantined, 1u);
  EXPECT_EQ(got.reliability.db_pairs_reingested, 64u);
  EXPECT_EQ(got.reliability.db_shards_served, 4u);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, ReingestCountsDistinctShardsAcrossRepeatTouches) {
  // The quarantined shard is touched once per screen; two screens through
  // one reader must not double-count its pairs beyond each run's serve.
  const Fixture f = make_fixture("repeat.swdb", 128, 10, 32);
  ASSERT_TRUE(db::corrupt_shard_for_testing(f.db_path, 0, 3, 1).ok());
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());

  DbBackendOptions opts;
  opts.scheme = kScheme;
  const auto backend = make_db_backend(*reader, opts);
  ChunkJob job;
  job.xs = f.xs;
  job.ys = f.ys;
  job.first_pair = 0;
  const ChunkResult r1 = backend->run(job);
  const ChunkResult r2 = backend->run(job);
  EXPECT_EQ(r1.db_shards_quarantined, 1u);
  EXPECT_EQ(r1.db_pairs_reingested, 64u);
  // Second run serves the cached re-ingest: no new quarantine counted.
  EXPECT_EQ(r2.db_shards_quarantined, 0u);
  EXPECT_EQ(r2.db_pairs_reingested, 0u);
  EXPECT_EQ(r1.scores, r2.scores);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, UnknownFirstPairFallsBackInMemory) {
  const Fixture f = make_fixture("unknown.swdb", 64, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  DbBackendOptions opts;
  opts.scheme = kScheme;
  const auto backend = make_db_backend(*reader, opts);
  ChunkJob job;
  job.xs = f.xs;
  job.ys = f.ys;  // first_pair left at kUnknownPair (rescore path)
  const ChunkResult r = backend->run(job);
  EXPECT_EQ(r.db_pairs_fallback, 64u);
  EXPECT_EQ(r.db_shards_served, 0u);
  ASSERT_EQ(r.scores.size(), 64u);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, SelfCheckQuarantineRetryStaysBitIdentical) {
  // The reliability self-check rescoring path submits jobs without pair
  // provenance; the db backend must serve them via fallback, keeping the
  // verified scores identical to the scalar reference.
  const Fixture f = make_fixture("selfcheck.swdb", 128, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  cfg.check.enabled = true;
  cfg.check.sample_every = 7;
  const ScreenReport got = screen(f.xs, f.ys, cfg);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.reliability.mismatches_detected, 0u);
  const ScreenReport expect = screen(f.xs, f.ys, base_config());
  EXPECT_EQ(got.scores, expect.scores);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, ShapeMismatchIsTypedRejection) {
  const Fixture f = make_fixture("shape.swdb", 128, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;

  // Fewer pairs than the store holds: rejected before any scoring.
  const auto fewer = try_screen(
      std::span<const Sequence>(f.xs).subspan(0, 100),
      std::span<const Sequence>(f.ys).subspan(0, 100), cfg);
  ASSERT_FALSE(fewer.has_value());
  EXPECT_EQ(fewer.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, StaleContentIsTypedRejection) {
  Fixture f = make_fixture("stale.swdb", 128, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());

  // Same shape, different residues: only the content fingerprint can tell
  // — and it must, or the store would score the wrong sequences.
  f.ys[17][3] = static_cast<encoding::Base>(
      (static_cast<int>(f.ys[17][3]) + 1) % 4);
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  const auto stale = try_screen(f.xs, f.ys, cfg);
  ASSERT_FALSE(stale.has_value());
  EXPECT_EQ(stale.status().code(), util::ErrorCode::kDbMismatch);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);

  // Verification is opt-out for callers that track freshness themselves.
  cfg.db_verify_content = false;
  const auto unchecked = try_screen(f.xs, f.ys, cfg);
  EXPECT_TRUE(unchecked.has_value()) << unchecked.status().to_string();
  std::remove(f.db_path.c_str());
}

TEST(DbScreen, ExplicitBackendOutranksDatabase) {
  const Fixture f = make_fixture("outrank.swdb", 64, 10, 32);
  auto reader = db::Reader::open(f.db_path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg = base_config();
  cfg.database = &*reader;
  std::size_t backend_calls = 0;
  auto backend = test_support::scores_backend(
      [&backend_calls](std::span<const Sequence> xs,
                       std::span<const Sequence> ys) {
        ++backend_calls;
        std::vector<std::uint32_t> scores(xs.size(), 0);
        (void)ys;
        return scores;
      });
  cfg.backend = &backend;
  const ScreenReport got = screen(f.xs, f.ys, cfg);
  EXPECT_GT(backend_calls, 0u);
  EXPECT_EQ(got.reliability.db_shards_served, 0u);
  std::remove(f.db_path.c_str());
}

}  // namespace
}  // namespace swbpbc::sw
