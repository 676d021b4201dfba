#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "bulk/executor.hpp"

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

}  // namespace
}  // namespace swbpbc::bulk
