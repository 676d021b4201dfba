#include <gtest/gtest.h>

#include <numeric>

#include "bulk/executor.hpp"
#include "bulk/prefix.hpp"
#include "util/rng.hpp"

namespace swbpbc::bulk {
namespace {

TEST(Executor, SerialAndParallelProduceSameResults) {
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  std::vector<int> serial(100), parallel(100);
  const auto kernel = [](int v) { return v * v + 1; };
  bulk_execute<int, int>(inputs, std::span<int>(serial), kernel,
                         Mode::kSerial);
  bulk_execute<int, int>(inputs, std::span<int>(parallel), kernel,
                         Mode::kParallel);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[10], 101);
}

TEST(Prefix, MatchesManualSums) {
  std::vector<int> b{3, 1, 4, 1, 5};
  prefix_sums(std::span<int>(b));
  const std::vector<int> expect{3, 4, 8, 9, 14};
  EXPECT_EQ(b, expect);
}

TEST(Prefix, BulkOverManyArrays) {
  util::Xoshiro256 rng(1);
  std::vector<std::vector<long>> arrays(20);
  std::vector<std::vector<long>> reference(20);
  for (std::size_t j = 0; j < arrays.size(); ++j) {
    arrays[j].resize(50);
    for (auto& v : arrays[j])
      v = static_cast<long>(rng.below(1000)) - 500;
    reference[j] = arrays[j];
    std::partial_sum(reference[j].begin(), reference[j].end(),
                     reference[j].begin());
  }
  bulk_prefix_sums(std::span<std::vector<long>>(arrays), Mode::kParallel);
  EXPECT_EQ(arrays, reference);
}

}  // namespace
}  // namespace swbpbc::bulk
