#include <gtest/gtest.h>

#include "encoding/dna.hpp"
#include "encoding/random.hpp"
#include "sw/params.hpp"
#include "sw/scalar.hpp"
#include "sw/wordwise.hpp"

namespace swbpbc::sw {
namespace {

using encoding::sequence_from_string;

TEST(ScalarSw, PaperTable2GoldenMatrix) {
  // Paper §III, Table II: X = TACTG, Y = GAACTGA, c1 = 2, c2 = 1, gap = 1.
  const auto x = sequence_from_string("TACTG");
  const auto y = sequence_from_string("GAACTGA");
  const ScoreParams params{2, 1, 1};
  const ScoreMatrix d = score_matrix(x, y, params);

  const std::uint32_t expect[5][7] = {
      {0, 0, 0, 0, 2, 1, 0},  // row T
      {0, 2, 2, 1, 1, 1, 3},  // row A
      {0, 1, 1, 4, 3, 2, 2},  // row C
      {0, 0, 0, 3, 6, 5, 4},  // row T
      {2, 1, 0, 2, 5, 8, 7},  // row G
  };
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(d.at(i + 1, j + 1), expect[i][j])
          << "cell (" << i << "," << j << ")";
    }
  }
}

TEST(ScalarSw, PaperTable2MaxScore) {
  const auto x = sequence_from_string("TACTG");
  const auto y = sequence_from_string("GAACTGA");
  const ScoreParams params{2, 1, 1};
  EXPECT_EQ(max_score(x, y, params), 8u);
}

TEST(ScalarSw, BoundaryRowsAndColumnsAreZero) {
  const auto x = sequence_from_string("ACGT");
  const auto y = sequence_from_string("TGCA");
  const ScoreMatrix d = score_matrix(x, y, {2, 1, 1});
  for (std::size_t j = 0; j <= 4; ++j) EXPECT_EQ(d.at(0, j), 0u);
  for (std::size_t i = 0; i <= 4; ++i) EXPECT_EQ(d.at(i, 0), 0u);
}

TEST(ScalarSw, EmptyInputsScoreZero) {
  const auto x = sequence_from_string("ACGT");
  const encoding::Sequence empty;
  EXPECT_EQ(max_score(empty, x, {2, 1, 1}), 0u);
  EXPECT_EQ(max_score(x, empty, {2, 1, 1}), 0u);
}

TEST(ScalarSw, PerfectMatchScoresMatchTimesLength) {
  const auto x = sequence_from_string("ACGTACGT");
  EXPECT_EQ(max_score(x, x, {2, 1, 1}), 16u);
  EXPECT_EQ(max_score(x, x, {3, 1, 1}), 24u);
}

TEST(ScalarSw, AllMismatchScoresZero) {
  const auto x = sequence_from_string("AAAA");
  const auto y = sequence_from_string("CCCC");
  EXPECT_EQ(max_score(x, y, {2, 1, 1}), 0u);
}

TEST(ScalarSw, MaxScoreAgreesWithFullMatrix) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = encoding::random_sequence(rng, 12);
    const auto y = encoding::random_sequence(rng, 30);
    const ScoreParams params{2, 1, 1};
    const ScoreMatrix d = score_matrix(x, y, params);
    std::uint32_t best = 0;
    for (std::size_t i = 1; i <= 12; ++i)
      for (std::size_t j = 1; j <= 30; ++j)
        best = std::max(best, d.at(i, j));
    EXPECT_EQ(max_score(x, y, params), best);
  }
}

TEST(ScalarSw, WordwiseSaturatingEqualsSignedClamp) {
  // The BPBC value semantics (saturating unsigned) must equal the paper's
  // signed max-with-zero recurrence.
  util::Xoshiro256 rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    const auto x = encoding::random_sequence(rng, 8 + rng.below(20));
    const auto y = encoding::random_sequence(rng, 16 + rng.below(60));
    const ScoreParams params{
        static_cast<std::uint32_t>(1 + rng.below(3)),
        static_cast<std::uint32_t>(1 + rng.below(3)),
        static_cast<std::uint32_t>(1 + rng.below(3))};
    EXPECT_EQ(wordwise_max_score(x, y, params), max_score(x, y, params))
        << "trial " << trial;
  }
}

TEST(ScalarSw, AlignTracebackPaperExample) {
  const auto x = sequence_from_string("TACTG");
  const auto y = sequence_from_string("GAACTGA");
  const Alignment a = align(x, y, {2, 1, 1});
  EXPECT_EQ(a.score, 8u);
  // The boldfaced alignment in Table II: x[1..4] = ACTG vs y[2..5] = ACTG.
  EXPECT_EQ(a.x_row, "ACTG");
  EXPECT_EQ(a.y_row, "ACTG");
  EXPECT_EQ(a.mid_row, "||||");
  EXPECT_EQ(a.x_begin, 1u);
  EXPECT_EQ(a.x_end, 5u);
  EXPECT_EQ(a.y_begin, 2u);
  EXPECT_EQ(a.y_end, 6u);
}

TEST(ScalarSw, AlignWithGap) {
  // x = ACGGT vs y = ACGT: best local alignment needs one gap.
  const auto x = sequence_from_string("ACGGT");
  const auto y = sequence_from_string("ACGT");
  const Alignment a = align(x, y, {2, 1, 1});
  EXPECT_EQ(a.score, 7u);  // 4 matches * 2 - 1 gap
  EXPECT_NE(a.y_row.find('-'), std::string::npos);
  EXPECT_EQ(a.x_row.size(), a.y_row.size());
  EXPECT_EQ(a.x_row.size(), a.mid_row.size());
}

TEST(ScalarSw, AlignEmptyReturnsZero) {
  const encoding::Sequence empty;
  const auto y = sequence_from_string("ACGT");
  const Alignment a = align(empty, y, {2, 1, 1});
  EXPECT_EQ(a.score, 0u);
  EXPECT_TRUE(a.x_row.empty());
}

TEST(ScalarSw, AlignmentScoreConsistentWithRows) {
  // Recomputing the score from the alignment rows must give a.score.
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = encoding::random_sequence(rng, 16);
    const auto y = encoding::random_sequence(rng, 48);
    const ScoreParams params{2, 1, 1};
    const Alignment a = align(x, y, params);
    std::int64_t score = 0;
    for (std::size_t i = 0; i < a.x_row.size(); ++i) {
      if (a.x_row[i] == '-' || a.y_row[i] == '-') {
        score -= params.gap;
      } else if (a.x_row[i] == a.y_row[i]) {
        score += params.match;
      } else {
        score -= params.mismatch;
      }
    }
    EXPECT_EQ(score, static_cast<std::int64_t>(a.score)) << "trial "
                                                         << trial;
  }
}

// A linear-gap uniform scheme: the paper's (c1, c2, gap) triple.
ScoringScheme linear(std::uint32_t match, std::uint32_t mismatch,
                     std::uint32_t gap) {
  ScoringScheme s;
  s.match = match;
  s.mismatch = mismatch;
  s.gap_open = gap;
  return s;
}

TEST(Params, RequiredSlicesBounds) {
  // m = 128, c1 = 2 -> max score 256 -> 9 bits (the paper's ceil(log2)
  // formula would say 8; see DESIGN.md).
  EXPECT_EQ(scheme_required_slices(linear(2, 1, 1), 128, 1024), 9u);
  EXPECT_EQ(scheme_required_slices(linear(2, 1, 1), 5, 7), 4u);  // max 10
  EXPECT_EQ(scheme_required_slices(linear(1, 1, 1), 3, 100), 2u);  // max 3
  // Constants must fit even when the score range is tiny.
  EXPECT_GE(scheme_required_slices(linear(1, 7, 1), 1, 1), 3u);
}

TEST(Params, RequiredSlicesRejectsHugeRange) {
  EXPECT_THROW((void)scheme_required_slices(linear(1u << 30, 1, 1), 1u << 10,
                                            1u << 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace swbpbc::sw
