// Affine-gap (Gotoh) scoring over DNA: the scalar reference against the
// bit-sliced kernel behind the DNA host backend, plus the degeneration
// property open == extend == linear gap.
#include <gtest/gtest.h>

#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/bpbc.hpp"
#include "sw/scalar.hpp"
#include "sw/scoring.hpp"

namespace swbpbc::sw {
namespace {

struct AffineCosts {
  std::uint32_t match = 2;
  std::uint32_t mismatch = 1;
  std::uint32_t gap_open = 3;
  std::uint32_t gap_extend = 1;
};

ScoringScheme affine(const AffineCosts& c) {
  ScoringScheme s;
  s.match = c.match;
  s.mismatch = c.mismatch;
  s.gap_model = GapModel::kAffine;
  s.gap_open = c.gap_open;
  s.gap_extend = c.gap_extend;
  return s;
}

std::uint32_t affine_max_score(const encoding::Sequence& x,
                               const encoding::Sequence& y,
                               const AffineCosts& c) {
  return scheme_max_score(x, y, affine(c));
}

// The DNA host backend: the path the screening pipeline runs for affine
// schemes.
std::vector<std::uint32_t> affine_bpbc_scores(
    const std::vector<encoding::Sequence>& xs,
    const std::vector<encoding::Sequence>& ys, const AffineCosts& c,
    LaneWidth width = LaneWidth::k64) {
  const auto backend = make_host_backend(affine(c), width, bulk::Mode::kSerial,
                                         encoding::TransposeMethod::kPlanned);
  ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  return backend->run(job).scores;
}

TEST(AffineScalar, PerfectMatch) {
  const auto x = encoding::sequence_from_string("ACGTACGT");
  EXPECT_EQ(affine_max_score(x, x, {2, 1, 3, 1}), 16u);
}

TEST(AffineScalar, LongGapCheaperThanRepeatedOpens) {
  // x matches y with one 5-column gap (the AAAAA run); no contiguous
  // region of x scores higher than the two 4-match halves (8 each).
  const auto x = encoding::sequence_from_string("GGGGCCCC");
  const auto y = encoding::sequence_from_string("GGGGAAAAACCCC");
  // Best: GGGG [5-gap] CCCC = 8 matches * 2 - (3 + 4 * 1) = 16 - 7 = 9.
  EXPECT_EQ(affine_max_score(x, y, {2, 1, 3, 1}), 9u);
  // With every gap column priced at the open cost the gap costs 15, so
  // the best alignment degrades to one ungapped half (score 8).
  EXPECT_EQ(affine_max_score(x, y, {2, 1, 3, 3}), 8u);
  EXPECT_GT(affine_max_score(x, y, {2, 1, 3, 1}),
            affine_max_score(x, y, {2, 1, 3, 3}));
}

TEST(AffineScalar, OpenEqualsExtendDegeneratesToLinear) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = encoding::random_sequence(rng, 6 + rng.below(12));
    const auto y = encoding::random_sequence(rng, 12 + rng.below(30));
    const auto g = static_cast<std::uint32_t>(1 + rng.below(3));
    const ScoreParams linear{2, 1, g};
    EXPECT_EQ(affine_max_score(x, y, {2, 1, g, g}), max_score(x, y, linear))
        << "trial " << trial;
  }
}

TEST(AffineScalar, EmptyInputs) {
  const auto x = encoding::sequence_from_string("ACGT");
  EXPECT_EQ(affine_max_score({}, x, {2, 1, 3, 1}), 0u);
  EXPECT_EQ(affine_max_score(x, {}, {2, 1, 3, 1}), 0u);
}

struct AffineCase {
  std::size_t count, m, n;
  AffineCosts params;
  std::uint64_t seed;
};

class AffineBpbcVsScalar : public ::testing::TestWithParam<AffineCase> {};

TEST_P(AffineBpbcVsScalar, Lane32) {
  const AffineCase c = GetParam();
  util::Xoshiro256 rng(c.seed);
  auto xs = encoding::random_sequences(rng, c.count, c.m);
  auto ys = encoding::random_sequences(rng, c.count, c.n);
  for (std::size_t k = 0; k < c.count; k += 4) {
    encoding::plant_motif(ys[k], xs[k], k % (c.n - c.m));
  }
  const auto scores = affine_bpbc_scores(xs, ys, c.params, LaneWidth::k32);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], affine_max_score(xs[k], ys[k], c.params))
        << "instance " << k;
  }
}

TEST_P(AffineBpbcVsScalar, Lane64) {
  const AffineCase c = GetParam();
  util::Xoshiro256 rng(c.seed + 100);
  const auto xs = encoding::random_sequences(rng, c.count, c.m);
  const auto ys = encoding::random_sequences(rng, c.count, c.n);
  const auto scores = affine_bpbc_scores(xs, ys, c.params, LaneWidth::k64);
  for (std::size_t k = 0; k < c.count; ++k) {
    EXPECT_EQ(scores[k], affine_max_score(xs[k], ys[k], c.params))
        << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AffineBpbcVsScalar,
    ::testing::Values(AffineCase{32, 8, 24, {2, 1, 3, 1}, 1},
                      AffineCase{40, 10, 30, {2, 1, 2, 1}, 2},
                      AffineCase{16, 12, 36, {3, 2, 4, 1}, 3},
                      AffineCase{16, 6, 20, {2, 1, 1, 1}, 4},
                      AffineCase{7, 9, 18, {2, 1, 5, 2}, 5}));

TEST(AffineBpbc, AgreesWithLinearPathWhenDegenerate) {
  util::Xoshiro256 rng(9);
  const auto xs = encoding::random_sequences(rng, 32, 9);
  const auto ys = encoding::random_sequences(rng, 32, 30);
  EXPECT_EQ(affine_bpbc_scores(xs, ys, {2, 1, 1, 1}),
            bpbc_max_scores(xs, ys, {2, 1, 1}));
}

TEST(AffineBpbc, SliceSizing) {
  EXPECT_GE(scheme_required_slices(affine({2, 1, 3, 1}), 128, 1024), 9u);
  // The open cost must be representable even if the score range is tiny.
  EXPECT_GE(scheme_required_slices(affine({1, 1, 7, 7}), 1, 2), 3u);
}

}  // namespace
}  // namespace swbpbc::sw
