// Protein through the one screen entry, sw::try_screen: BLOSUM62 affine
// and linear batches scored by every host engine at every lane width, in
// memory and from a protein store (healthy, and with one shard rotted on
// disk), against the scalar Gotoh oracle; chunked checkpoint -> resume;
// the self-check on a protein batch; and the typed kInvalidInput every
// front end returns for a code outside its alphabet.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "device/engine.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

const LaneWidth kWidths[] = {LaneWidth::k32,  LaneWidth::k64,
                             LaneWidth::k128, LaneWidth::k256,
                             LaneWidth::k512, LaneWidth::kAuto};
const BackendChoice kBackends[] = {BackendChoice::kBpbc,
                                   BackendChoice::kStriped,
                                   BackendChoice::kAuto};

ScoringScheme blosum62_scheme(GapModel gaps) {
  ScoringScheme s;
  s.matrix = blosum62();
  s.gap_model = gaps;
  s.gap_open = gaps == GapModel::kAffine ? 11 : 4;
  s.gap_extend = 1;
  return s;
}

Sequence random_protein(util::Xoshiro256& rng, std::size_t len) {
  Sequence s(len);
  for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(20));
  return s;
}

// 150 pairs span three 64-entry shards (the last one partial). Every
// third target carries a copy of its query, so some pairs score high.
struct Batch {
  std::vector<Sequence> xs;
  std::vector<Sequence> ys;
};

Batch protein_batch(std::uint64_t seed, std::size_t count = 150,
                    std::size_t m = 10, std::size_t n = 30) {
  util::Xoshiro256 rng(seed);
  Batch b;
  for (std::size_t k = 0; k < count; ++k) {
    b.xs.push_back(random_protein(rng, m));
    Sequence y = random_protein(rng, n);
    if (k % 3 == 0) encoding::plant_motif(y, b.xs.back(), k % (n - m));
    b.ys.push_back(std::move(y));
  }
  return b;
}

std::vector<std::uint32_t> oracle(const Batch& b, const ScoringScheme& s) {
  std::vector<std::uint32_t> out;
  for (std::size_t k = 0; k < b.xs.size(); ++k)
    out.push_back(scheme_max_score(b.xs[k], b.ys[k], s));
  return out;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_protein_" + name;
}

enum class Storage { kMemory, kStore, kRottedStore };

const char* storage_name(Storage s) {
  switch (s) {
    case Storage::kMemory: return "in memory";
    case Storage::kStore: return "healthy store";
    case Storage::kRottedStore: return "rotted store";
  }
  return "?";
}

TEST(ProteinScreen, MatchesScalarGotohOnEveryEngineWidthAndStorage) {
  const Batch b = protein_batch(7001);
  const std::string healthy = temp_path("healthy.swdb");
  const std::string rotted = temp_path("rotted.swdb");
  ASSERT_TRUE(db::build_generic_database(b.ys, 5, healthy).ok());
  ASSERT_TRUE(db::build_generic_database(b.ys, 5, rotted).ok());
  ASSERT_TRUE(db::corrupt_shard_for_testing(rotted, 1, 9, 4).ok());

  for (const GapModel gaps : {GapModel::kAffine, GapModel::kLinear}) {
    const ScoringScheme scheme = blosum62_scheme(gaps);
    const std::vector<std::uint32_t> want = oracle(b, scheme);
    for (const Storage storage :
         {Storage::kMemory, Storage::kStore, Storage::kRottedStore}) {
      for (const BackendChoice backend : kBackends) {
        for (const LaneWidth width : kWidths) {
          const std::string where =
              scheme_name(scheme) + " " + storage_name(storage) + " " +
              backend_choice_name(backend) + " @ " + lane_width_name(width);
          ScreenConfig cfg;
          cfg.scheme = scheme;
          cfg.width = width;
          cfg.backend_choice = backend;
          cfg.threshold = 20;
          std::optional<db::Reader> reader;
          if (storage != Storage::kMemory) {
            auto opened = db::Reader::open(
                storage == Storage::kStore ? healthy : rotted);
            ASSERT_TRUE(opened.has_value()) << where;
            reader.emplace(std::move(opened).value());
            cfg.database = &*reader;
          }
          const auto got = try_screen(b.xs, b.ys, cfg);
          ASSERT_TRUE(got.has_value())
              << where << ": " << got.status().to_string();
          EXPECT_EQ(got->scores, want) << where;
          for (const ScreenHit& hit : got->hits)
            EXPECT_EQ(hit.detail.score, got->scores[hit.index]) << where;
          if (storage == Storage::kMemory) continue;
          // The store serves every chunk at the width the screen
          // resolved; rot costs exactly one re-ingested shard.
          const ReliabilityReport& rel = got->reliability;
          EXPECT_EQ(got->lane_width, resolve_lane_width(width)) << where;
          EXPECT_EQ(rel.db_pairs_fallback, 0u) << where;
          EXPECT_EQ(rel.db_shards_quarantined,
                    storage == Storage::kRottedStore ? 1u : 0u)
              << where;
          EXPECT_EQ(rel.db_pairs_reingested,
                    storage == Storage::kRottedStore ? 64u : 0u)
              << where;
        }
      }
    }
  }
  std::remove(healthy.c_str());
  std::remove(rotted.c_str());
}

TEST(ProteinScreen, ChunkedCheckpointResumesBitIdentically) {
  const Batch b = protein_batch(7002, 200);
  ScreenConfig base;
  base.scheme = blosum62_scheme(GapModel::kAffine);
  base.threshold = 20;
  base.chunk_pairs = 64;
  const auto uninterrupted = try_screen(b.xs, b.ys, base);
  ASSERT_TRUE(uninterrupted.has_value());
  EXPECT_EQ(uninterrupted->scores, oracle(b, *base.scheme));

  // Run 1: cancelled after two of four chunks, checkpointing as it goes.
  const std::string ckpt = temp_path("resume.bin");
  util::CancellationToken token;
  ScreenConfig first = base;
  first.checkpoint_path = ckpt;
  first.cancel = &token;
  first.progress = [&token](const ChunkProgress& p) {
    if (p.chunk == 1) token.cancel();
  };
  const auto partial = try_screen(b.xs, b.ys, first);
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->status.code(), util::ErrorCode::kCancelled);
  EXPECT_FALSE(partial->complete());

  // Run 2: the settled chunks come from the stream, the rest are scored,
  // and the report equals the uninterrupted one.
  ScreenConfig second = base;
  second.resume_path = ckpt;
  const auto resumed = try_screen(b.xs, b.ys, second);
  ASSERT_TRUE(resumed.has_value()) << resumed.status().to_string();
  EXPECT_TRUE(resumed->status.ok());
  EXPECT_TRUE(resumed->complete());
  EXPECT_TRUE(resumed->chunks[0].resumed);
  EXPECT_TRUE(resumed->chunks[1].resumed);
  EXPECT_FALSE(resumed->chunks[2].resumed);
  EXPECT_EQ(resumed->scores, uninterrupted->scores);
  ASSERT_EQ(resumed->hits.size(), uninterrupted->hits.size());
  for (std::size_t h = 0; h < resumed->hits.size(); ++h) {
    EXPECT_EQ(resumed->hits[h].index, uninterrupted->hits[h].index);
    EXPECT_EQ(resumed->hits[h].detail.x_row,
              uninterrupted->hits[h].detail.x_row);
    EXPECT_EQ(resumed->hits[h].detail.y_row,
              uninterrupted->hits[h].detail.y_row);
  }
  std::remove(ckpt.c_str());
}

TEST(ProteinScreen, SelfCheckVerifiesEveryLaneClean) {
  const Batch b = protein_batch(7003, 90);
  for (const BackendChoice backend :
       {BackendChoice::kBpbc, BackendChoice::kStriped}) {
    ScreenConfig cfg;
    cfg.scheme = blosum62_scheme(GapModel::kAffine);
    cfg.backend_choice = backend;
    cfg.threshold = 20;
    cfg.chunk_pairs = 32;
    cfg.check.enabled = true;
    cfg.check.sample_every = 1;
    const auto got = try_screen(b.xs, b.ys, cfg);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(got->reliability.lanes_verified, b.xs.size())
        << backend_choice_name(backend);
    EXPECT_EQ(got->reliability.mismatches_detected, 0u)
        << backend_choice_name(backend);
    EXPECT_EQ(got->scores, oracle(b, *cfg.scheme));
  }
}

// --- a code outside the alphabet is a typed kInvalidInput everywhere ----

void expect_code_rejected(const util::Status& s, const std::string& needle,
                          const std::string& where) {
  ASSERT_FALSE(s.ok()) << where;
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput) << where;
  EXPECT_NE(s.message().find(needle), std::string::npos)
      << where << ": " << s.message();
}

TEST(ProteinScreen, OutOfAlphabetCodeIsTypedAtTryScreen) {
  util::Xoshiro256 rng(7004);
  // DNA: code 4 is not a dna_alphabet() code.
  auto dx = encoding::random_sequences(rng, 6, 8);
  auto dy = encoding::random_sequences(rng, 6, 20);
  dy[3][11] = 4;
  for (const BackendChoice backend : kBackends) {
    ScreenConfig cfg;
    cfg.backend_choice = backend;
    const auto got = try_screen(dx, dy, cfg);
    expect_code_rejected(got.status(), "ys[3][11] code 4",
                         std::string("dna ") + backend_choice_name(backend));
  }
  // Protein: code 20 is past the 20-symbol alphabet, though it fits the
  // 5 bit planes — in memory and against a store that holds it.
  Batch b = protein_batch(7005, 70);
  b.ys[65][2] = 20;
  ScreenConfig cfg;
  cfg.scheme = blosum62_scheme(GapModel::kAffine);
  expect_code_rejected(try_screen(b.xs, b.ys, cfg).status(),
                       "ys[65][2] code 20", "protein in memory");
  const std::string path = temp_path("code20.swdb");
  ASSERT_TRUE(db::build_generic_database(b.ys, 5, path).ok());
  auto reader = db::Reader::open(path);
  ASSERT_TRUE(reader.has_value());
  cfg.database = &*reader;
  expect_code_rejected(try_screen(b.xs, b.ys, cfg).status(),
                       "ys[65][2] code 20", "protein store");
  b.xs[0][0] = 20;
  expect_code_rejected(try_screen(b.xs, b.ys, cfg).status(),
                       "xs[0][0] code 20", "protein query");
  std::remove(path.c_str());
}

TEST(ProteinScreen, OutOfAlphabetCodeIsTypedAtTrySchemeMaxScores) {
  util::Xoshiro256 rng(7006);
  auto dx = encoding::random_sequences(rng, 4, 8);
  const auto dy = encoding::random_sequences(rng, 4, 16);
  dx[1][7] = 4;
  expect_code_rejected(
      try_scheme_max_scores(dx, dy, ScoringScheme{}).status(),
      "xs[1][7] code 4", "dna");
  Batch b = protein_batch(7007, 4);
  b.ys[2][0] = 20;
  expect_code_rejected(
      try_scheme_max_scores(b.xs, b.ys, blosum62_scheme(GapModel::kLinear))
          .status(),
      "ys[2][0] code 20", "protein");
}

TEST(ProteinScreen, OutOfAlphabetCodeIsTypedAtTheDeviceEngine) {
  util::Xoshiro256 rng(7008);
  const auto xs = encoding::random_sequences(rng, 5, 8);
  auto ys = encoding::random_sequences(rng, 5, 16);
  ys[4][15] = 4;
  const auto status_of = [](const auto& run) {
    try {
      run();
    } catch (const util::StatusError& e) {
      return e.status();
    }
    return util::Status{};
  };
  device::EngineOptions options;
  options.width = LaneWidth::k32;
  device::PipelineEngine engine(options);
  ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  expect_code_rejected(status_of([&] { (void)engine.run(job); }),
                       "ys[4][15] code 4", "PipelineEngine::run");
  expect_code_rejected(status_of([&] { (void)engine.run_stages(job); }),
                       "ys[4][15] code 4", "PipelineEngine::run_stages");
  expect_code_rejected(status_of([&] { (void)engine.run_wordwise(job); }),
                       "ys[4][15] code 4", "PipelineEngine::run_wordwise");
}

TEST(ProteinScreen, OutOfAlphabetCodeIsTypedAtBuildDatabase) {
  util::Xoshiro256 rng(7009);
  auto dna = encoding::random_sequences(rng, 70, 12);
  dna[66][3] = 4;
  const std::string path = temp_path("dna_code4.swdb");
  expect_code_rejected(db::build_database(dna, path), "seqs[66] holds code 4",
                       "build_database");
  EXPECT_FALSE(db::Reader::open(path).has_value());
}

}  // namespace
}  // namespace swbpbc::sw
