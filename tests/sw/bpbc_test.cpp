// Cross-checks of the BPBC Smith-Waterman against the scalar reference:
// the library's central correctness property.
#include <gtest/gtest.h>

#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {
namespace {

struct Case {
  std::size_t count;
  std::size_t m;
  std::size_t n;
  ScoreParams params;
  std::uint64_t seed;
};

class BpbcVsScalar : public ::testing::TestWithParam<Case> {};

TEST_P(BpbcVsScalar, Lane32MatchesScalar) {
  const Case c = GetParam();
  util::Xoshiro256 rng(c.seed);
  const auto xs = encoding::random_sequences(rng, c.count, c.m);
  const auto ys = encoding::random_sequences(rng, c.count, c.n);
  const auto scores = bpbc_max_scores(xs, ys, c.params, LaneWidth::k32);
  ASSERT_EQ(scores.size(), c.count);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], max_score(xs[k], ys[k], c.params))
        << "instance " << k;
  }
}

TEST_P(BpbcVsScalar, Lane64MatchesScalar) {
  const Case c = GetParam();
  util::Xoshiro256 rng(c.seed + 1);
  const auto xs = encoding::random_sequences(rng, c.count, c.m);
  const auto ys = encoding::random_sequences(rng, c.count, c.n);
  const auto scores = bpbc_max_scores(xs, ys, c.params, LaneWidth::k64);
  ASSERT_EQ(scores.size(), c.count);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], max_score(xs[k], ys[k], c.params))
        << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BpbcVsScalar,
    ::testing::Values(
        Case{32, 8, 24, {2, 1, 1}, 1},     // one full 32-lane group
        Case{64, 8, 24, {2, 1, 1}, 2},     // two groups / one 64 group
        Case{7, 5, 9, {2, 1, 1}, 3},       // partial group (tail lanes)
        Case{33, 6, 10, {2, 1, 1}, 4},     // full group + 1
        Case{16, 16, 16, {2, 1, 1}, 5},    // m == n
        Case{16, 12, 40, {3, 2, 2}, 6},    // different costs
        Case{16, 10, 20, {1, 1, 1}, 7},    // unit costs
        Case{16, 9, 33, {5, 1, 2}, 8},     // strong match reward
        Case{8, 1, 12, {2, 1, 1}, 9},      // single-character pattern
        Case{8, 12, 12, {2, 3, 4}, 10}));  // harsh penalties

TEST(Bpbc, ParallelModeMatchesSerial) {
  util::Xoshiro256 rng(42);
  const auto xs = encoding::random_sequences(rng, 96, 10);
  const auto ys = encoding::random_sequences(rng, 96, 30);
  const ScoreParams params{2, 1, 1};
  const auto serial =
      bpbc_max_scores(xs, ys, params, LaneWidth::k32, bulk::Mode::kSerial);
  const auto parallel =
      bpbc_max_scores(xs, ys, params, LaneWidth::k32, bulk::Mode::kParallel);
  EXPECT_EQ(serial, parallel);
}

TEST(Bpbc, NaiveTransposeGivesSameScores) {
  util::Xoshiro256 rng(43);
  const auto xs = encoding::random_sequences(rng, 40, 8);
  const auto ys = encoding::random_sequences(rng, 40, 20);
  const ScoreParams params{2, 1, 1};
  const auto planned =
      bpbc_max_scores(xs, ys, params, LaneWidth::k32, bulk::Mode::kSerial,
                      encoding::TransposeMethod::kPlanned);
  const auto naive =
      bpbc_max_scores(xs, ys, params, LaneWidth::k32, bulk::Mode::kSerial,
                      encoding::TransposeMethod::kNaive);
  EXPECT_EQ(planned, naive);
}

TEST(Bpbc, IdenticalStringsSaturateToFullScore) {
  util::Xoshiro256 rng(44);
  const auto x = encoding::random_sequence(rng, 16);
  const std::vector<encoding::Sequence> xs(32, x);
  std::vector<encoding::Sequence> ys;
  for (int k = 0; k < 32; ++k) {
    auto y = encoding::random_sequence(rng, 40);
    encoding::plant_motif(y, x, 4);
    ys.push_back(std::move(y));
  }
  const ScoreParams params{2, 1, 1};
  const auto scores = bpbc_max_scores(xs, ys, params);
  for (auto sc : scores) EXPECT_GE(sc, 32u);  // full 16-char match
}

TEST(Bpbc, AlignerValidatesShapes) {
  using View = encoding::PlanarGenericView<std::uint32_t>;
  const SchemeBpbcAligner<std::uint32_t> aligner(
      ScoringScheme::from_params({2, 1, 1}), 8, 16);
  EXPECT_EQ(aligner.m(), 8u);
  EXPECT_EQ(aligner.n(), 16u);
  util::Xoshiro256 rng(50);
  const auto xs = encoding::random_sequences(rng, 32, 9);  // wrong m
  const auto ys = encoding::random_sequences(rng, 32, 16);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  std::vector<std::uint32_t> slices(aligner.slices());
  EXPECT_THROW(aligner.max_score_slices(View::from(bx.groups[0]),
                                        View::from(by.groups[0]),
                                        std::span<std::uint32_t>(slices)),
               std::invalid_argument);
}

TEST(Bpbc, MismatchedBatchSizesRejected) {
  util::Xoshiro256 rng(51);
  const auto xs = encoding::random_sequences(rng, 4, 8);
  const auto ys = encoding::random_sequences(rng, 5, 16);
  EXPECT_THROW(bpbc_max_scores(xs, ys, {2, 1, 1}), std::invalid_argument);
}

TEST(Bpbc, EmptyBatchGivesEmptyScores) {
  const std::vector<encoding::Sequence> none;
  EXPECT_TRUE(bpbc_max_scores(none, none, {2, 1, 1}).empty());
}

TEST(Bpbc, TimingsArePopulated) {
  util::Xoshiro256 rng(52);
  const auto xs = encoding::random_sequences(rng, 32, 8);
  const auto ys = encoding::random_sequences(rng, 32, 64);
  PhaseTimings t;
  (void)bpbc_max_scores(xs, ys, {2, 1, 1}, LaneWidth::k32,
                        bulk::Mode::kSerial,
                        encoding::TransposeMethod::kPlanned, &t);
  EXPECT_GT(t.swa_ms, 0.0);
  EXPECT_GE(t.total_ms(), t.swa_ms);
}

TEST(Bpbc, ScoreNeverExceedsSliceCapacity) {
  // Saturation/headroom check: scores fit in s bits by construction.
  util::Xoshiro256 rng(53);
  const std::size_t m = 16;
  const ScoreParams params{2, 1, 1};
  const unsigned s = required_slices(params, m, 64);
  const auto xs = encoding::random_sequences(rng, 32, m);
  const auto ys = encoding::random_sequences(rng, 32, 64);
  const auto scores = bpbc_max_scores(xs, ys, params);
  for (auto sc : scores) EXPECT_LT(sc, 1u << s);
}

}  // namespace
}  // namespace swbpbc::sw
