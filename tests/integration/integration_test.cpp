// End-to-end cross-checks spanning every execution path in the library:
// scalar CPU, wordwise bulk, BPBC CPU (32/64-lane, serial/parallel) and
// the simulated-GPU pipeline must all agree.
#include <gtest/gtest.h>

#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/wordwise.hpp"

namespace swbpbc {
namespace {

TEST(Integration, AllExecutionPathsAgree) {
  util::Xoshiro256 rng(31337);
  const std::size_t count = 80, m = 12, n = 48;
  auto xs = encoding::random_sequences(rng, count, m);
  auto ys = encoding::random_sequences(rng, count, n);
  for (std::size_t k = 0; k < count; k += 7) {
    encoding::plant_motif(ys[k], xs[k], k % (n - m));
  }
  // The wordwise baselines run the paper's linear triple; the BPBC
  // engines take the same rules as a ScoringScheme.
  const sw::ScoreParams params{2, 1, 1};
  const sw::ScoringScheme scheme;  // 2/1/1 linear

  const auto scalar = sw::wordwise_max_scores(xs, ys, params);
  const auto bpbc32 =
      sw::bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32);
  const auto bpbc64 =
      sw::bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k64,
                          bulk::Mode::kParallel);
  device::GpuRunOptions options;
  options.mode = bulk::Mode::kSerial;
  const auto gpu32 =
      device::gpu_bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32,
                                  options);
  const auto gpu_word = device::gpu_wordwise_max_scores(xs, ys, params,
                                                        options);

  EXPECT_EQ(scalar, bpbc32);
  EXPECT_EQ(scalar, bpbc64);
  EXPECT_EQ(scalar, gpu32.scores);
  EXPECT_EQ(scalar, gpu_word.scores);
}

TEST(Integration, ScreeningAgreesWithExhaustiveScalarScan) {
  util::Xoshiro256 rng(999);
  const std::size_t count = 48, m = 10, n = 64;
  auto xs = encoding::random_sequences(rng, count, m);
  auto ys = encoding::random_sequences(rng, count, n);
  for (std::size_t k = 1; k < count; k += 6) {
    auto noisy = encoding::mutate(xs[k], 0.1, rng);
    encoding::plant_motif(ys[k], noisy, 8);
  }
  sw::ScreenConfig config;
  config.params = {2, 1, 1};
  config.threshold = 14;
  config.mode = bulk::Mode::kParallel;
  const auto report = sw::screen(xs, ys, config);

  std::size_t expected_hits = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t truth = sw::max_score(xs[k], ys[k], config.params);
    EXPECT_EQ(report.scores[k], truth) << "instance " << k;
    if (truth >= config.threshold) ++expected_hits;
  }
  EXPECT_EQ(report.hits.size(), expected_hits);
}

TEST(Integration, LongerTextsNeverLowerTheScore) {
  // Monotonicity: extending Y cannot reduce the max local-alignment score.
  util::Xoshiro256 rng(5555);
  const auto x = encoding::random_sequence(rng, 12);
  auto y = encoding::random_sequence(rng, 32);
  const sw::ScoreParams params{2, 1, 1};
  std::uint32_t prev = 0;
  for (int grow = 0; grow < 6; ++grow) {
    const std::uint32_t score = sw::max_score(x, y, params);
    EXPECT_GE(score, prev);
    prev = score;
    const auto extra = encoding::random_sequence(rng, 16);
    y.insert(y.end(), extra.begin(), extra.end());
  }
}

}  // namespace
}  // namespace swbpbc
