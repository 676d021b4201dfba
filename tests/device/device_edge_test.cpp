// Edge-case coverage for the GPU simulator pipelines.
#include <gtest/gtest.h>

#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/scalar.hpp"

namespace swbpbc::device {
namespace {

TEST(DeviceEdge, SingleRowPattern) {
  // m = 1: one thread per block; the pipelined max reduction reduces to
  // the single thread writing its own running max.
  util::Xoshiro256 rng(1);
  const auto xs = encoding::random_sequences(rng, 33, 1);
  const auto ys = encoding::random_sequences(rng, 33, 17);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  const auto result = gpu_bpbc_max_scores(xs, ys, scheme,
                                          sw::LaneWidth::k32);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(result.scores[k], sw::scheme_max_score(xs[k], ys[k], scheme));
  }
}

TEST(DeviceEdge, SingleColumnText) {
  util::Xoshiro256 rng(2);
  const auto xs = encoding::random_sequences(rng, 32, 9);
  const auto ys = encoding::random_sequences(rng, 32, 1);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  const auto result = gpu_bpbc_max_scores(xs, ys, scheme,
                                          sw::LaneWidth::k64);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(result.scores[k], sw::scheme_max_score(xs[k], ys[k], scheme));
  }
}

TEST(DeviceEdge, SquareProblem) {
  util::Xoshiro256 rng(3);
  const auto xs = encoding::random_sequences(rng, 40, 13);
  const auto ys = encoding::random_sequences(rng, 40, 13);
  sw::ScoringScheme scheme;
  scheme.match = 3;
  scheme.mismatch = 2;
  const auto result = gpu_bpbc_max_scores(xs, ys, scheme,
                                          sw::LaneWidth::k32);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(result.scores[k], sw::scheme_max_score(xs[k], ys[k], scheme));
  }
}

TEST(DeviceEdge, WordwiseKernelSingleRow) {
  util::Xoshiro256 rng(4);
  const auto xs = encoding::random_sequences(rng, 5, 1);
  const auto ys = encoding::random_sequences(rng, 5, 9);
  const sw::ScoreParams params{2, 1, 1};
  const auto result = gpu_wordwise_max_scores(xs, ys, params);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(result.scores[k], sw::max_score(xs[k], ys[k], params));
  }
}

TEST(DeviceEdge, IdenticalPairsSaturate) {
  util::Xoshiro256 rng(5);
  const auto x = encoding::random_sequence(rng, 12);
  const std::vector<encoding::Sequence> xs(64, x);
  const std::vector<encoding::Sequence> ys(64, x);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  const auto result = gpu_bpbc_max_scores(xs, ys, scheme,
                                          sw::LaneWidth::k64);
  for (auto sc : result.scores) EXPECT_EQ(sc, 24u);
}

TEST(DeviceEdge, SmallW2bBlockDim) {
  // Block dim smaller than the position count exercises the grid-stride
  // loop of the W2B kernel.
  util::Xoshiro256 rng(6);
  const auto xs = encoding::random_sequences(rng, 32, 8);
  const auto ys = encoding::random_sequences(rng, 32, 24);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  GpuRunOptions options;
  options.w2b_block_dim = 4;
  options.mode = bulk::Mode::kSerial;
  const auto result =
      gpu_bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32, options);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(result.scores[k], sw::scheme_max_score(xs[k], ys[k], scheme));
  }
}

}  // namespace
}  // namespace swbpbc::device
