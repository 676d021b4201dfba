// sw::validate(const ScreenConfig&) — one table-driven case per
// cross-field rejection rule (typed kInvalidInput naming the offending
// `config.` field, never an exception) and the configs it accepts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "device/engine.hpp"
#include "encoding/random.hpp"
#include "fn_backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

constexpr ScoreParams kParams{2, 1, 1};
const ScoringScheme kScheme;  // 2/1/1 linear

ScoringScheme affine_scheme() {
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  return affine;
}

// validate() only checks whether these pointers are set; it never calls
// the backend or touches the store.
Backend* opaque_backend() {
  static test_support::FnBackend backend(
      [](const ChunkJob&) { return ChunkResult{}; });
  return &backend;
}

db::Reader* unopened_store() {
  static int placeholder = 0;
  return reinterpret_cast<db::Reader*>(&placeholder);
}

// One row per rejection rule. Each row is registered as its own test,
// ScreenSpecBuilder.<name>: the suite keeps the test IDs these rules had
// when a builder layer checked them, so a rule's history stays findable
// by name.
struct Rule {
  const char* name;
  void (*mutate)(ScreenConfig&);
  const char* needle;  // must appear in the rejection message
};

const Rule kRules[] = {
    {"RejectsInvalidSchemeWithFieldName",
     [](ScreenConfig& c) {
       ScoringScheme bad = affine_scheme();
       bad.gap_open = 2;
       bad.gap_extend = 5;  // extending dearer than opening: invalid
       c.scheme = bad;
     },
     "config.scheme.gap_extend"},
    {"RejectsMatrixSchemeWithRedirect",
     [](ScreenConfig& c) {
       ScoringScheme protein;
       protein.matrix = blosum62();
       c.scheme = protein;
     },
     "try_scheme_max_scores"},
    {"RejectsZeroMatchReward",
     [](ScreenConfig& c) { c.params = ScoreParams{0, 1, 1}; },
     "config.params.match"},
    {"RejectsZeroGapPenalty",
     [](ScreenConfig& c) { c.params = ScoreParams{2, 1, 0}; },
     "config.params.gap"},
    {"DatabaseRejectsNonBpbcHostEngines",
     [](ScreenConfig& c) {
       c.database = unopened_store();
       c.backend_choice = BackendChoice::kStriped;
     },
     "config.database"},
    {"RejectsDatabaseCombinedWithExplicitBackend",
     [](ScreenConfig& c) {
       c.database = unopened_store();
       c.backend = opaque_backend();
     },
     "config.database"},
    {"RejectsDatabaseWithMisalignedChunks",
     [](ScreenConfig& c) {
       c.database = unopened_store();
       c.chunk_pairs = 100;  // not a multiple of the 64-lane shard
     },
     "multiple of 64"},
    {"RejectsSalvageWithoutResumePath",
     [](ScreenConfig& c) {
       c.chunk_pairs = 64;
       c.resume_salvage_torn_tail = true;
     },
     "config.resume_path"},
    {"RejectsCheckpointPathWithoutChunking",
     [](ScreenConfig& c) { c.checkpoint_path = "ckpt.bin"; },
     "config.checkpoint_path"},
    {"RejectsResumePathWithoutChunking",
     [](ScreenConfig& c) { c.resume_path = "resume.bin"; },
     "config.resume_path"},
    {"RejectsZeroOverlapDepth",
     [](ScreenConfig& c) { c.overlap_depth = 0; },
     "config.overlap_depth"},
    {"RejectsOverlapBeyondTheArenaRing",
     [](ScreenConfig& c) {
       c.backend = opaque_backend();
       c.chunk_pairs = 64;
       c.overlap_depth = 9;
     },
     "config.overlap_depth"},
    {"RejectsOverlapWithoutChunking",
     [](ScreenConfig& c) {
       c.backend = opaque_backend();
       c.overlap_depth = 2;  // chunk_pairs left 0
     },
     "chunk_pairs"},
    {"RejectsOverlapWithoutStreamBackend",
     [](ScreenConfig& c) {
       c.chunk_pairs = 64;
       c.overlap_depth = 2;
     },
     "config.backend"},
    {"RejectsNegativeBackoff",
     [](ScreenConfig& c) {
       c.check.enabled = true;
       c.check.backoff_base_ms = -1.0;
     },
     "config.check.backoff_base_ms"},
};

class RejectsWithFieldName : public testing::Test {
 public:
  explicit RejectsWithFieldName(const Rule& rule) : rule_(rule) {}

  void TestBody() override {
    ScreenConfig config;
    rule_.mutate(config);
    const util::Status status = validate(config);
    ASSERT_FALSE(status.ok()) << "expected rejection: " << rule_.needle;
    EXPECT_EQ(status.code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(status.message().find(rule_.needle), std::string::npos)
        << "message \"" << status.message() << "\" should mention \""
        << rule_.needle << "\"";
  }

 private:
  const Rule& rule_;
};

[[maybe_unused]] const bool kRulesRegistered = [] {
  for (const Rule& rule : kRules)
    testing::RegisterTest("ScreenSpecBuilder", rule.name, nullptr, nullptr,
                          __FILE__, __LINE__,
                          [&rule] { return new RejectsWithFieldName(rule); });
  return true;
}();

TEST(ScreenConfigValidation, AcceptsDefaultConfig) {
  EXPECT_TRUE(validate(ScreenConfig{}).ok());
}

TEST(ScreenConfigValidation, AcceptsExpressibleAndAffineSchemes) {
  ScreenConfig config;
  config.params = ScoreParams{0, 0, 0};  // ignored once scheme is set
  config.scheme = ScoringScheme::from_params(ScoreParams{3, 2, 4});
  EXPECT_TRUE(validate(config).ok());
  config.scheme = affine_scheme();
  EXPECT_TRUE(validate(config).ok());
}

TEST(ScreenConfigValidation, AcceptsDatabaseWithShardAlignedChunks) {
  ScreenConfig config;
  config.database = unopened_store();
  config.chunk_pairs = 128;
  // auto and bpbc defer to the store, which serves linear and affine
  // schemes alike.
  for (const bool affine : {false, true}) {
    if (affine) config.scheme = affine_scheme();
    for (const BackendChoice choice :
         {BackendChoice::kAuto, BackendChoice::kBpbc}) {
      config.backend_choice = choice;
      const util::Status status = validate(config);
      EXPECT_TRUE(status.ok()) << backend_choice_name(choice)
                               << " affine=" << affine << ": "
                               << status.to_string();
    }
  }
}

TEST(ScreenConfigValidation, ValidatedOverlappedEngineScreenRuns) {
  util::Xoshiro256 rng(31);
  const std::vector<Sequence> xs = encoding::random_sequences(rng, 48, 8);
  const std::vector<Sequence> ys = encoding::random_sequences(rng, 48, 12);
  device::EngineOptions eopts;
  eopts.scheme = kScheme;
  eopts.width = LaneWidth::k32;
  eopts.overlap_depth = 3;
  device::PipelineEngine engine(eopts);
  ScreenConfig config;
  config.params = kParams;
  config.threshold = 12;
  config.width = LaneWidth::k32;
  config.backend = &engine;
  config.chunk_pairs = 16;
  config.overlap_depth = 3;
  ASSERT_TRUE(validate(config).ok()) << validate(config).to_string();
  const util::Expected<ScreenReport> report = try_screen(xs, ys, config);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_TRUE(report->complete());

  ScreenConfig serial;
  serial.params = kParams;
  serial.threshold = 12;
  serial.width = LaneWidth::k32;
  serial.chunk_pairs = 16;
  EXPECT_EQ(report->scores, screen(xs, ys, serial).scores);
}

TEST(ScreenConfigValidation, TryScreenSharesTheSchemeMessage) {
  // One helper holds the scheme rules: try_screen and validate() reject
  // an invalid gap_extend with the very same message.
  ScreenConfig config;
  ScoringScheme bad = affine_scheme();
  bad.gap_open = 2;
  bad.gap_extend = 5;
  config.scheme = bad;
  const std::vector<Sequence> xs(2, Sequence(8, encoding::Base::A));
  const std::vector<Sequence> ys(2, Sequence(16, encoding::Base::C));
  const util::Status validated = validate(config);
  const auto screened = try_screen(xs, ys, config);
  ASSERT_FALSE(validated.ok());
  ASSERT_FALSE(screened.has_value());
  EXPECT_EQ(screened.status().code(), validated.code());
  EXPECT_EQ(screened.status().message(), validated.message());
}

}  // namespace
}  // namespace swbpbc::sw
