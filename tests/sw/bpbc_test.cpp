// Cross-checks of the BPBC Smith-Waterman against the scalar reference:
// the library's central correctness property.
#include <gtest/gtest.h>

#include <ostream>

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

// Prints a case as p32_m8_n24_2_1_1_seed1 (pairs, pattern and text
// lengths, match/mismatch/gap, seed): ctest names each instance after
// its printed parameter, so the name must not depend on the struct's
// padding bytes, which gtest's default byte dump includes.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "p" << c.count << "_m" << c.m << "_n" << c.n << "_"
      << c.params.match << "_" << c.params.mismatch << "_" << c.params.gap
      << "_seed" << c.seed;
}

class BpbcVsScalar : public ::testing::TestWithParam<Case> {};

TEST_P(BpbcVsScalar, Lane32MatchesScalar) {
  const Case c = GetParam();
  util::Xoshiro256 rng(c.seed);
  const auto xs = encoding::random_sequences(rng, c.count, c.m);
  const auto ys = encoding::random_sequences(rng, c.count, c.n);
  const auto scores =
      try_scheme_max_scores(xs, ys, ScoringScheme::from_params(c.params),
                            LaneWidth::k32)
          .value();
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
  const auto scores =
      try_scheme_max_scores(xs, ys, ScoringScheme::from_params(c.params),
                            LaneWidth::k64)
          .value();
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
  const ScoringScheme scheme;  // 2/1/1 linear
  const auto serial =
      try_scheme_max_scores(xs, ys, scheme, LaneWidth::k32, bulk::Mode::kSerial)
          .value();
  const auto parallel = try_scheme_max_scores(xs, ys, scheme, LaneWidth::k32,
                                              bulk::Mode::kParallel)
                            .value();
  EXPECT_EQ(serial, parallel);
}

TEST(Bpbc, NaiveTransposeGivesSameScores) {
  util::Xoshiro256 rng(43);
  const auto xs = encoding::random_sequences(rng, 40, 8);
  const auto ys = encoding::random_sequences(rng, 40, 20);
  const ScoringScheme scheme;  // 2/1/1 linear
  const auto planned =
      try_scheme_max_scores(xs, ys, scheme, LaneWidth::k32, bulk::Mode::kSerial,
                            encoding::TransposeMethod::kPlanned)
          .value();
  const auto naive =
      try_scheme_max_scores(xs, ys, scheme, LaneWidth::k32, bulk::Mode::kSerial,
                            encoding::TransposeMethod::kNaive)
          .value();
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
  const ScoringScheme scheme;  // 2/1/1 linear
  const auto scores = try_scheme_max_scores(xs, ys, scheme).value();
  for (auto sc : scores) EXPECT_GE(sc, 32u);  // full 16-char match
}

TEST(Bpbc, AlignerValidatesShapes) {
  const SchemeBpbcAligner<std::uint32_t> aligner(ScoringScheme{}, 8, 16);
  EXPECT_EQ(aligner.m(), 8u);
  EXPECT_EQ(aligner.n(), 16u);
  util::Xoshiro256 rng(50);
  const auto xs = encoding::random_sequences(rng, 32, 9);  // wrong m
  const auto ys = encoding::random_sequences(rng, 32, 16);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  std::vector<std::uint32_t> slices(aligner.slices());
  EXPECT_THROW(aligner.max_score_slices(bx.groups[0].view(),
                                        by.groups[0].view(),
                                        std::span<std::uint32_t>(slices)),
               std::invalid_argument);
}

TEST(Bpbc, ScoreGroupsValidatesShapes) {
  // Two 32-lane groups hold 33..64 lanes. A count outside that range, or
  // unequal group lists, must throw instead of reading or writing past
  // the groups or the score vector.
  const SchemeBpbcAligner<std::uint32_t> aligner(ScoringScheme{}, 8, 16);
  util::Xoshiro256 rng(52);
  const auto xs = encoding::random_sequences(rng, 64, 8);
  const auto ys = encoding::random_sequences(rng, 64, 16);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  std::vector<encoding::PlanarGenericView<std::uint32_t>> xv, yv;
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    xv.push_back(bx.groups[g].view());
    yv.push_back(by.groups[g].view());
  }
  ASSERT_EQ(xv.size(), 2u);
  const auto score = [&](std::size_t x_groups, std::size_t y_groups,
                         std::size_t count) {
    return aligner.score_groups(
        std::span(xv).first(x_groups), std::span(yv).first(y_groups), count,
        bulk::Mode::kSerial, nullptr);
  };
  EXPECT_THROW(score(2, 2, 10), std::invalid_argument);
  EXPECT_THROW(score(2, 2, 32), std::invalid_argument);
  EXPECT_THROW(score(2, 2, 65), std::invalid_argument);
  EXPECT_THROW(score(2, 1, 33), std::invalid_argument);
  EXPECT_THROW(score(1, 2, 32), std::invalid_argument);
  EXPECT_THROW(score(0, 0, 1), std::invalid_argument);
  EXPECT_TRUE(score(0, 0, 0).empty());

  const auto want = try_scheme_max_scores(xs, ys, ScoringScheme{}).value();
  for (const std::size_t count : {std::size_t{33}, std::size_t{64}}) {
    const auto got = score(2, 2, count);
    EXPECT_EQ(got, std::vector<std::uint32_t>(
                       want.begin(),
                       want.begin() + static_cast<std::ptrdiff_t>(count)));
  }
}

TEST(Bpbc, MismatchedBatchSizesRejected) {
  util::Xoshiro256 rng(51);
  const auto xs = encoding::random_sequences(rng, 4, 8);
  const auto ys = encoding::random_sequences(rng, 5, 16);
  EXPECT_THROW(try_scheme_max_scores(xs, ys, ScoringScheme{}).value(),
               std::invalid_argument);
}

TEST(Bpbc, InvalidSchemeOrOutOfAlphabetCodeIsATypedError) {
  util::Xoshiro256 rng(54);
  auto xs = encoding::random_sequences(rng, 4, 8);
  auto ys = encoding::random_sequences(rng, 4, 16);
  ScoringScheme zero_gap;
  zero_gap.gap_open = 0;
  const auto invalid = try_scheme_max_scores(xs, ys, zero_gap);
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.status().code(), util::ErrorCode::kInvalidInput);

  // A DNA strand holds dna_alphabet() codes: 4 is not one, and the front
  // end names where it sits instead of scoring it.
  ys[2][5] = 4;
  const auto code = try_scheme_max_scores(xs, ys, ScoringScheme{});
  ASSERT_FALSE(code.has_value());
  EXPECT_EQ(code.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(code.status().message().find("ys[2][5] code 4"),
            std::string::npos)
      << code.status().message();
}

TEST(Bpbc, EmptyBatchGivesEmptyScores) {
  const std::vector<encoding::Sequence> none;
  EXPECT_TRUE(
      try_scheme_max_scores(none, none, ScoringScheme{}).value().empty());
}

TEST(Bpbc, TimingsArePopulated) {
  util::Xoshiro256 rng(52);
  const auto xs = encoding::random_sequences(rng, 32, 8);
  const auto ys = encoding::random_sequences(rng, 32, 64);
  PhaseTimings t;
  (void)try_scheme_max_scores(xs, ys, ScoringScheme{}, LaneWidth::k32,
                              bulk::Mode::kSerial,
                              encoding::TransposeMethod::kPlanned, &t)
      .value();
  EXPECT_GT(t.swa_ms, 0.0);
  EXPECT_GE(t.total_ms(), t.swa_ms);
}

TEST(Bpbc, ScoreNeverExceedsSliceCapacity) {
  // Saturation/headroom check: scores fit in s bits by construction.
  util::Xoshiro256 rng(53);
  const std::size_t m = 16;
  const ScoringScheme scheme;  // 2/1/1 linear
  const unsigned s = scheme_required_slices(scheme, m, 64);
  const auto xs = encoding::random_sequences(rng, 32, m);
  const auto ys = encoding::random_sequences(rng, 32, 64);
  const auto scores = try_scheme_max_scores(xs, ys, scheme).value();
  for (auto sc : scores) EXPECT_LT(sc, 1u << s);
}

}  // namespace
}  // namespace swbpbc::sw
