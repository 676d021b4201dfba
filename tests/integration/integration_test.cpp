// End-to-end cross-checks spanning every execution path in the library:
// scalar CPU, wordwise bulk, BPBC CPU (32/64-lane, serial/parallel),
// circuit simulation, and the simulated-GPU pipeline must all agree.
#include <gtest/gtest.h>

#include "bitops/arith.hpp"
#include "circuit/evaluate.hpp"
#include "circuit/optimize.hpp"
#include "circuit/sw_circuit.hpp"
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

TEST(Integration, CircuitSimulatedSwaMatchesBpbc) {
  // Run an entire (small) BPBC DP where every cell is evaluated by the
  // optimized constant-baked SW circuit instead of the inline arithmetic —
  // the paper's "convert the computation into a circuit simulation"
  // claim, end to end.
  util::Xoshiro256 rng(424242);
  const std::size_t m = 6, n = 14;
  const sw::ScoreParams params{2, 1, 1};
  const unsigned s = sw::scheme_required_slices(sw::ScoringScheme{}, m, n);
  const auto xs = encoding::random_sequences(rng, 32, m);
  const auto ys = encoding::random_sequences(rng, 32, n);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);

  const circuit::Circuit cell =
      circuit::optimize(circuit::build_sw_cell_const(s, params));
  ASSERT_EQ(cell.input_count(), 3 * s + 4);

  // Row-major DP, every cell via circuit::evaluate_into (scratch reused
  // across cells, the intended hot-loop usage).
  std::vector<std::uint32_t> row((n + 1) * s, 0);
  std::vector<std::uint32_t> best(s, 0);
  std::vector<std::uint32_t> inputs(3 * s + 4);
  std::vector<std::uint32_t> value, out;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::uint32_t> diag(s, 0);
    for (std::size_t j = 1; j <= n; ++j) {
      std::vector<std::uint32_t> old_up(row.begin() + static_cast<long>(j * s),
                                        row.begin() +
                                            static_cast<long>((j + 1) * s));
      // Pack inputs: A=up, B=left, C=diag, x(L,H), y(L,H).
      std::copy(old_up.begin(), old_up.end(), inputs.begin());
      std::copy(row.begin() + static_cast<long>((j - 1) * s),
                row.begin() + static_cast<long>(j * s),
                inputs.begin() + static_cast<long>(s));
      std::copy(diag.begin(), diag.end(),
                inputs.begin() + static_cast<long>(2 * s));
      inputs[3 * s + 0] = bx.groups[0].row(0)[i];
      inputs[3 * s + 1] = bx.groups[0].row(1)[i];
      inputs[3 * s + 2] = by.groups[0].row(0)[j - 1];
      inputs[3 * s + 3] = by.groups[0].row(1)[j - 1];
      circuit::evaluate_into<std::uint32_t>(cell, inputs, value, out);
      std::copy(out.begin(), out.end(),
                row.begin() + static_cast<long>(j * s));
      bitops::max_b<std::uint32_t>(
          std::span<const std::uint32_t>(best),
          std::span<const std::uint32_t>(out),
          std::span<std::uint32_t>(best));
      diag = old_up;
    }
  }
  const auto circuit_scores = encoding::untranspose_values<std::uint32_t>(
      std::span<const std::uint32_t>(best), s);

  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_EQ(circuit_scores[k], sw::max_score(xs[k], ys[k], params))
        << "instance " << k;
  }
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
