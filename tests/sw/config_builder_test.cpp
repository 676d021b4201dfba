// sw/config.hpp — the v2 decomposed configs and their validating
// builders: flatten() field mapping, every cross-field rejection rule
// (typed kInvalidInput, never an exception), and the try_scan_text
// boundary the ScanSpec feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/config.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

constexpr ScoreParams kParams{2, 1, 1};

void expect_invalid(const util::Expected<ScreenConfig>& built,
                    const std::string& needle) {
  ASSERT_FALSE(built.has_value()) << "expected rejection: " << needle;
  EXPECT_EQ(built.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(built.status().message().find(needle), std::string::npos)
      << "message \"" << built.status().message() << "\" should mention \""
      << needle << "\"";
}

TEST(ScreenSpecBuilder, FlattensEverySectionIntoTheV1Config) {
  device::EngineOptions eopts;
  eopts.params = kParams;
  device::PipelineEngine engine(eopts);
  util::CancellationToken cancel;

  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.threshold = 40;
  scoring.width = LaneWidth::k32;
  scoring.mode = bulk::Mode::kParallel;
  scoring.traceback = false;
  scoring.backend = &engine;
  SurvivalConfig survival;
  survival.chunk_pairs = 256;
  survival.chunk_retry_limit = 5;
  survival.overlap_depth = 3;
  survival.cancel = &cancel;
  survival.checkpoint_path = "ckpt.bin";
  survival.check.enabled = true;
  ObservabilityConfig obs;
  bool called = false;
  obs.progress = [&called](const ChunkProgress&) { called = true; };

  const util::Expected<ScreenConfig> built = ScreenSpecBuilder()
                                                 .scoring(scoring)
                                                 .survival(survival)
                                                 .observability(obs)
                                                 .build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  const ScreenConfig& cfg = *built;
  EXPECT_EQ(cfg.threshold, 40u);
  EXPECT_EQ(cfg.width, LaneWidth::k32);
  EXPECT_EQ(cfg.mode, bulk::Mode::kParallel);
  EXPECT_FALSE(cfg.traceback);
  EXPECT_EQ(cfg.backend, &engine);
  EXPECT_EQ(cfg.chunk_pairs, 256u);
  EXPECT_EQ(cfg.chunk_retry_limit, 5u);
  EXPECT_EQ(cfg.overlap_depth, 3u);
  EXPECT_EQ(cfg.cancel, &cancel);
  EXPECT_EQ(cfg.checkpoint_path, "ckpt.bin");
  EXPECT_TRUE(cfg.check.enabled);
  ASSERT_TRUE(static_cast<bool>(cfg.progress));
  cfg.progress(ChunkProgress{});
  EXPECT_TRUE(called);
}

TEST(ScreenSpecBuilder, DefaultSpecBuilds) {
  ScoringConfig scoring;
  scoring.params = kParams;
  const auto built = ScreenSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->chunk_pairs, 0u);
  EXPECT_EQ(built->overlap_depth, 1u);
}

TEST(ScreenSpecBuilder, RejectsZeroMatchReward) {
  ScoringConfig scoring;
  scoring.params = ScoreParams{0, 1, 1};
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "params.match");
}

TEST(ScreenSpecBuilder, RejectsZeroGapPenalty) {
  ScoringConfig scoring;
  scoring.params = ScoreParams{2, 1, 0};
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(), "params.gap");
}

TEST(ScreenSpecBuilder, AcceptsExpressibleAndAffineSchemes) {
  // An expressible scheme outranks params and flattens losslessly.
  ScoringConfig scoring;
  scoring.params = ScoreParams{0, 0, 0};  // ignored once scheme is set
  scoring.scheme = ScoringScheme::from_params(ScoreParams{3, 2, 4});
  auto built = ScreenSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  ASSERT_TRUE(built->scheme.has_value());
  EXPECT_TRUE(built->scheme->params_expressible());

  // An affine uniform scheme is valid for the screening pipeline.
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  scoring.scheme = affine;
  built = ScreenSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_TRUE(built->scheme->affine());
}

TEST(ScreenSpecBuilder, RejectsInvalidSchemeWithFieldName) {
  ScoringConfig scoring;
  ScoringScheme bad;
  bad.gap_model = GapModel::kAffine;
  bad.gap_open = 2;
  bad.gap_extend = 5;  // extending cheaper to open than extend: invalid
  scoring.scheme = bad;
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "scoring.scheme.gap_extend");
}

TEST(ScreenSpecBuilder, RejectsMatrixSchemeWithRedirect) {
  ScoringConfig scoring;
  ScoringScheme protein;
  protein.matrix = blosum62();
  scoring.scheme = protein;
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "try_scheme_max_scores");
}

TEST(ScreenSpecBuilder, RejectsDatabaseWithAffineScheme) {
  // The store serve path in the v1 pipeline drives the linear DNA
  // kernels; affine store screening routes through
  // try_scheme_db_max_scores instead.
  ScoringConfig scoring;
  scoring.params = kParams;
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  scoring.scheme = affine;
  scoring.database = reinterpret_cast<db::Reader*>(&scoring);
  SurvivalConfig survival;
  survival.chunk_pairs = 64;
  expect_invalid(
      ScreenSpecBuilder().scoring(scoring).survival(survival).build(),
      "try_scheme_db_max_scores");
}

TEST(ScreenSpecBuilder, RejectsResumePathWithoutChunking) {
  SurvivalConfig survival;
  survival.resume_path = "resume.bin";
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "resume_path");
}

TEST(ScreenSpecBuilder, RejectsCheckpointPathWithoutChunking) {
  SurvivalConfig survival;
  survival.checkpoint_path = "ckpt.bin";
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "checkpoint_path");
}

TEST(ScreenSpecBuilder, RejectsZeroOverlapDepth) {
  SurvivalConfig survival;
  survival.overlap_depth = 0;
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "overlap_depth");
}

TEST(ScreenSpecBuilder, RejectsOverlapBeyondTheArenaRing) {
  device::EngineOptions eopts;
  eopts.params = kParams;
  device::PipelineEngine engine(eopts);
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend = &engine;
  SurvivalConfig survival;
  survival.chunk_pairs = 64;
  survival.overlap_depth = 9;
  expect_invalid(
      ScreenSpecBuilder().scoring(scoring).survival(survival).build(),
      "overlap_depth");
}

TEST(ScreenSpecBuilder, RejectsOverlapWithoutChunking) {
  device::EngineOptions eopts;
  eopts.params = kParams;
  device::PipelineEngine engine(eopts);
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend = &engine;
  SurvivalConfig survival;
  survival.overlap_depth = 2;  // chunk_pairs left 0
  expect_invalid(
      ScreenSpecBuilder().scoring(scoring).survival(survival).build(),
      "chunk_pairs");
}

TEST(ScreenSpecBuilder, RejectsOverlapWithoutStreamBackend) {
  SurvivalConfig survival;
  survival.chunk_pairs = 64;
  survival.overlap_depth = 2;
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "scoring.backend");
}

TEST(ScreenSpecBuilder, RejectsDatabaseCombinedWithExplicitBackend) {
  device::EngineOptions eopts;
  eopts.params = kParams;
  device::PipelineEngine engine(eopts);
  // Any non-null Reader* triggers the rule; the pointer is never
  // dereferenced during validation.
  auto* fake_db = reinterpret_cast<db::Reader*>(&eopts);
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.database = fake_db;
  scoring.backend = &engine;
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "scoring.database");
}

TEST(ScreenSpecBuilder, RejectsDatabaseWithMisalignedChunks) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.database = reinterpret_cast<db::Reader*>(&scoring);
  SurvivalConfig survival;
  survival.chunk_pairs = 100;  // not a multiple of the 64-lane shard
  expect_invalid(
      ScreenSpecBuilder().scoring(scoring).survival(survival).build(),
      "multiple of 64");
}

TEST(ScreenSpecBuilder, AcceptsDatabaseWithShardAlignedChunks) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.database = reinterpret_cast<db::Reader*>(&scoring);
  SurvivalConfig survival;
  survival.chunk_pairs = 128;
  const auto built =
      ScreenSpecBuilder().scoring(scoring).survival(survival).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->database, scoring.database);
  EXPECT_TRUE(built->db_verify_content);
}

TEST(ScreenSpecBuilder, RejectsSalvageWithoutResumePath) {
  SurvivalConfig survival;
  survival.chunk_pairs = 64;
  survival.resume_salvage_torn_tail = true;
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "resume_path");
}

TEST(ScreenSpecBuilder, RejectsNegativeBackoff) {
  SurvivalConfig survival;
  survival.check.enabled = true;
  survival.check.backoff_base_ms = -1.0;
  expect_invalid(ScreenSpecBuilder().survival(survival).build(),
                 "backoff_base_ms");
}

TEST(ScreenSpecBuilder, StaysUsableAfterARejection) {
  SurvivalConfig survival;
  survival.overlap_depth = 0;
  ScreenSpecBuilder builder;
  builder.survival(survival);
  EXPECT_FALSE(builder.build().has_value());
  survival.overlap_depth = 1;
  const auto built = builder.survival(survival).build();
  EXPECT_TRUE(built.has_value()) << built.status().to_string();
}

TEST(ScreenSpecBuilder, BuiltConfigRunsAnOverlappedScreen) {
  util::Xoshiro256 rng(31);
  const std::vector<Sequence> xs = encoding::random_sequences(rng, 48, 8);
  const std::vector<Sequence> ys = encoding::random_sequences(rng, 48, 12);
  device::EngineOptions eopts;
  eopts.params = kParams;
  eopts.width = LaneWidth::k32;
  eopts.overlap_depth = 3;
  device::PipelineEngine engine(eopts);
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.threshold = 12;
  scoring.width = LaneWidth::k32;
  scoring.backend = &engine;
  SurvivalConfig survival;
  survival.chunk_pairs = 16;
  survival.overlap_depth = 3;
  const auto built =
      ScreenSpecBuilder().scoring(scoring).survival(survival).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  const util::Expected<ScreenReport> report = try_screen(xs, ys, *built);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->complete());

  ScreenConfig serial;
  serial.params = kParams;
  serial.threshold = 12;
  serial.width = LaneWidth::k32;
  serial.chunk_pairs = 16;
  EXPECT_EQ(report->scores, screen(xs, ys, serial).scores);
}

// --- ScanSpec ------------------------------------------------------------

void expect_scan_invalid(const util::Expected<ScanConfig>& built,
                         const std::string& needle) {
  ASSERT_FALSE(built.has_value()) << "expected rejection: " << needle;
  EXPECT_EQ(built.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(built.status().message().find(needle), std::string::npos)
      << built.status().message();
}

TEST(ScanSpecBuilder, FlattensIntoScanConfig) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.threshold = 9;
  scoring.width = LaneWidth::k32;
  scoring.traceback = false;
  ScanWindowConfig windows;
  windows.window = 128;
  windows.overlap = 16;
  windows.chunk_windows = 4;
  const auto built =
      ScanSpecBuilder().scoring(scoring).windows(windows).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->threshold, 9u);
  EXPECT_EQ(built->window, 128u);
  EXPECT_EQ(built->overlap, 16u);
  EXPECT_EQ(built->chunk_windows, 4u);
  EXPECT_FALSE(built->traceback);
}

TEST(ScanSpecBuilder, RejectsZeroWindow) {
  ScanWindowConfig windows;
  windows.window = 0;
  ScoringConfig scoring;
  scoring.params = kParams;
  expect_scan_invalid(
      ScanSpecBuilder().scoring(scoring).windows(windows).build(),
      "windows.window");
}

TEST(ScanSpecBuilder, RejectsWindowNotExceedingOverlap) {
  ScanWindowConfig windows;
  windows.window = 64;
  windows.overlap = 64;
  ScoringConfig scoring;
  scoring.params = kParams;
  expect_scan_invalid(
      ScanSpecBuilder().scoring(scoring).windows(windows).build(),
      "overlap");
}

TEST(ScanSpecBuilder, RejectsConfiguredBackends) {
  ScoringConfig scoring;
  scoring.params = kParams;
  device::EngineOptions eopts;
  eopts.params = kParams;
  device::PipelineEngine engine(eopts);
  scoring.backend = &engine;
  expect_scan_invalid(ScanSpecBuilder().scoring(scoring).build(),
                      "backend");
}

TEST(ScanSpecBuilder, RejectsAffineScheme) {
  ScoringConfig scoring;
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  scoring.scheme = affine;
  expect_scan_invalid(ScanSpecBuilder().scoring(scoring).build(),
                      "expressible");
}

TEST(ScanSpecBuilder, ExpressibleSchemeLowersOntoParams) {
  ScoringConfig scoring;
  scoring.params = ScoreParams{0, 0, 0};  // ignored once scheme is set
  scoring.scheme = ScoringScheme::from_params(ScoreParams{3, 2, 4});
  const auto built = ScanSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->params.match, 3u);
  EXPECT_EQ(built->params.mismatch, 2u);
  EXPECT_EQ(built->params.gap, 4u);
}

// --- backend_choice / backend_name ---------------------------------------

TEST(ScreenSpecBuilder, BackendNameFlattensAndOutranksTheEnum) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend_choice = BackendChoice::kBpbc;
  scoring.backend_name = "striped";
  const auto built = ScreenSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->backend_choice, BackendChoice::kStriped);
  // And the enum alone flows through when no name is set.
  scoring.backend_name.clear();
  const auto enum_only = ScreenSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(enum_only.has_value());
  EXPECT_EQ(enum_only->backend_choice, BackendChoice::kBpbc);
}

TEST(ScreenSpecBuilder, UnknownBackendNameIsATypedError) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend_name = "farrar";
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "scoring.backend_name");
}

TEST(ScreenSpecBuilder, NaiveBackendRejectsAffineSchemes) {
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  ScoringConfig scoring;
  scoring.scheme = affine;
  scoring.backend_name = "wordwise-naive";
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "wordwise-naive");
}

TEST(ScreenSpecBuilder, DatabaseRejectsNonBpbcHostEngines) {
  // The store serves the BPBC kernels; an explicit rival host engine is
  // incoherent. A null-pointer check suffices for the rule — no real
  // store needed, validate() runs before any IO.
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.database = reinterpret_cast<db::Reader*>(0x1);
  scoring.backend_name = "striped";
  expect_invalid(ScreenSpecBuilder().scoring(scoring).build(),
                 "scoring.database");
  // auto and bpbc defer to the store and stay accepted.
  scoring.backend_name = "auto";
  EXPECT_TRUE(ScreenSpecBuilder().scoring(scoring).build().has_value());
}

TEST(ScanSpecBuilder, BackendNameFlattensIntoScanConfig) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend_name = "wordwise-naive";
  const auto built = ScanSpecBuilder().scoring(scoring).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  EXPECT_EQ(built->backend, BackendChoice::kWordwiseNaive);
}

TEST(ScanSpecBuilder, UnknownBackendNameIsATypedError) {
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.backend_name = "gpu";
  const auto built = ScanSpecBuilder().scoring(scoring).build();
  ASSERT_FALSE(built.has_value());
  EXPECT_EQ(built.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(built.status().message().find("scoring.backend_name"),
            std::string::npos);
}

// --- try_scan_text -------------------------------------------------------

TEST(TryScanText, EmptyQueryIsATypedError) {
  const auto result = try_scan_text({}, Sequence(4, encoding::Base{}), ScanConfig{});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(TryScanText, WindowNotExceedingOverlapIsATypedError) {
  util::Xoshiro256 rng(32);
  const Sequence query = encoding::random_sequences(rng, 1, 8).front();
  const Sequence text = encoding::random_sequences(rng, 1, 256).front();
  ScanConfig cfg;
  cfg.params = kParams;
  cfg.window = 16;  // default overlap = 2 * |query| = 16
  const auto result = try_scan_text(query, text, cfg);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(TryScanText, ThrowingWrapperRoutesThroughIt) {
  // scan_text = try_scan_text(...).value(): same typed status, thrown as
  // StatusError (which still is-a std::invalid_argument for v1 callers).
  try {
    scan_text({}, Sequence(4, encoding::Base{}), ScanConfig{});
    FAIL() << "scan_text accepted an empty query";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput);
  }
  EXPECT_THROW(scan_text({}, Sequence(4, encoding::Base{}), ScanConfig{}),
               std::invalid_argument);
}

TEST(TryScanText, SpecBuiltScanFindsThePlantedHit) {
  util::Xoshiro256 rng(33);
  const Sequence query = encoding::random_sequences(rng, 1, 8).front();
  Sequence text = encoding::random_sequences(rng, 1, 300).front();
  std::copy(query.begin(), query.end(),
            text.begin() + 150);  // plant an exact match
  ScoringConfig scoring;
  scoring.params = kParams;
  scoring.threshold = 16;  // 8 matches * 2
  scoring.traceback = false;
  ScanWindowConfig windows;
  windows.window = 64;
  windows.overlap = 16;
  const auto built =
      ScanSpecBuilder().scoring(scoring).windows(windows).build();
  ASSERT_TRUE(built.has_value()) << built.status().to_string();
  const auto report = try_scan_text(query, text, *built);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->status.ok());
  bool found = false;
  for (const ScanHit& hit : report->hits)
    if (hit.text_begin <= 150 && 158 <= hit.text_end) found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace swbpbc::sw
