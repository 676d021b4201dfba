#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/swapcopy.hpp"
#include "bitsim/transpose.hpp"

namespace swbpbc::bitsim {
namespace {

// --- swap/copy primitives -------------------------------------------------

TEST(SwapCopy, SwapExchangesMaskedBlocks) {
  std::uint8_t a = 0xAB;  // 1010 1011
  std::uint8_t b = 0xCD;  // 1100 1101
  swap_bits<std::uint8_t>(a, b, 4, 0x0F);
  // a's high nibble <-> b's low nibble.
  EXPECT_EQ(a, 0xDB);
  EXPECT_EQ(b, 0xCA);
}

TEST(SwapCopy, SwapIsInvolution) {
  std::mt19937 rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = static_cast<std::uint32_t>(rng());
    auto b = static_cast<std::uint32_t>(rng());
    const std::uint32_t a0 = a, b0 = b;
    const std::uint32_t mask = step_mask<std::uint32_t>(8);
    swap_bits(a, b, 8, mask);
    swap_bits(a, b, 8, mask);
    EXPECT_EQ(a, a0);
    EXPECT_EQ(b, b0);
  }
}

TEST(SwapCopy, CopyHiMatchesSwapEffectOnA) {
  std::mt19937 rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = static_cast<std::uint32_t>(rng());
    auto b = static_cast<std::uint32_t>(rng());
    std::uint32_t a_sw = a, b_sw = b;
    const unsigned k = 1u << (trial % 5);
    const std::uint32_t mask = step_mask<std::uint32_t>(k);
    swap_bits(a_sw, b_sw, k, mask);
    std::uint32_t a_cp = a;
    copy_hi(a_cp, b, k, mask);
    EXPECT_EQ(a_cp, a_sw);
  }
}

TEST(SwapCopy, CopyLoMatchesSwapEffectOnB) {
  std::mt19937 rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = static_cast<std::uint32_t>(rng());
    auto b = static_cast<std::uint32_t>(rng());
    std::uint32_t a_sw = a, b_sw = b;
    const unsigned k = 1u << (trial % 5);
    const std::uint32_t mask = step_mask<std::uint32_t>(k);
    swap_bits(a_sw, b_sw, k, mask);
    std::uint32_t b_cp = b;
    copy_lo(a, b_cp, k, mask);
    EXPECT_EQ(b_cp, b_sw);
  }
}

TEST(SwapCopy, StepMaskPatterns) {
  EXPECT_EQ(step_mask<std::uint8_t>(4), 0x0F);
  EXPECT_EQ(step_mask<std::uint8_t>(2), 0x33);
  EXPECT_EQ(step_mask<std::uint8_t>(1), 0x55);
  EXPECT_EQ(step_mask<std::uint32_t>(16), 0x0000FFFFu);
  EXPECT_EQ(step_mask<std::uint64_t>(32), 0x00000000FFFFFFFFull);
}

// --- full transpose ---------------------------------------------------------

template <LaneWord W>
void check_transpose_definition() {
  constexpr unsigned kBits = word_bits_v<W>;
  std::mt19937_64 rng(42);
  std::vector<W> a(kBits);
  for (auto& w : a) w = static_cast<W>(rng());
  const std::vector<W> orig = a;
  transpose_bits(std::span<W>(a));
  for (unsigned i = 0; i < kBits; ++i) {
    for (unsigned j = 0; j < kBits; ++j) {
      const unsigned bit_t = static_cast<unsigned>((a[i] >> j) & 1);
      const unsigned bit_o = static_cast<unsigned>((orig[j] >> i) & 1);
      ASSERT_EQ(bit_t, bit_o) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Transpose, Definition8) { check_transpose_definition<std::uint8_t>(); }
TEST(Transpose, Definition32) { check_transpose_definition<std::uint32_t>(); }
TEST(Transpose, Definition64) { check_transpose_definition<std::uint64_t>(); }

TEST(Transpose, RoundTrip) {
  std::mt19937 rng(7);
  std::vector<std::uint32_t> a(32);
  for (auto& w : a) w = static_cast<std::uint32_t>(rng());
  const auto orig = a;
  transpose_bits(std::span<std::uint32_t>(a));
  untranspose_bits(std::span<std::uint32_t>(a));
  EXPECT_EQ(a, orig);
}

TEST(Transpose, TransposeTwiceIsIdentity) {
  // transpose is an involution as a matrix op.
  std::mt19937_64 rng(8);
  std::vector<std::uint64_t> a(64);
  for (auto& w : a) w = static_cast<std::uint32_t>(rng());
  const auto orig = a;
  transpose_bits(std::span<std::uint64_t>(a));
  transpose_bits(std::span<std::uint64_t>(a));
  EXPECT_EQ(a, orig);
}

TEST(Transpose, FullOpsCountLemma1) {
  // Lemma 1: a 32x32 bit matrix is transposed with 560 operations.
  EXPECT_EQ(full_transpose_ops<std::uint32_t>(), 560u);
  EXPECT_EQ(full_transpose_ops<std::uint8_t>(), 84u);   // paper: 8x8 = 84
  EXPECT_EQ(full_transpose_ops<std::uint64_t>(), 1344u);
}

// --- specialized plans (Table I) -------------------------------------------

struct TableRow {
  unsigned s;
  unsigned swaps;
  unsigned copies;
  unsigned total;
};

TEST(TransposePlan, MatchesPaperTable1Rows) {
  // Rows of Table I whose per-step breakdown our liveness planner
  // reproduces exactly. (Paper rows s=16 and s=3 are internally
  // inconsistent / use a different routing; s=6 differs by one op in our
  // favor — see EXPERIMENTS.md.)
  const TableRow rows[] = {
      {32, 80, 0, 560}, {8, 12, 24, 180}, {7, 11, 25, 177},
      {5, 8, 27, 164},  {4, 4, 28, 140},  {2, 1, 30, 127},
  };
  for (const TableRow& row : rows) {
    const TransposePlan plan = TransposePlan::transpose_low_bits(32, row.s);
    EXPECT_EQ(plan.swap_count(), row.swaps) << "s=" << row.s;
    EXPECT_EQ(plan.copy_count(), row.copies) << "s=" << row.s;
    EXPECT_EQ(plan.total_operations(), row.total) << "s=" << row.s;
  }
}

TEST(TransposePlan, S16MatchesPaperPerStepColumns) {
  // Paper Table I row s=16 per-step: step1 = 16 copies, steps 2-5 =
  // 8 swaps each (its printed totals column contradicts these; we assert
  // the per-step columns).
  const TransposePlan plan = TransposePlan::transpose_low_bits(32, 16);
  ASSERT_EQ(plan.steps().size(), 5u);
  EXPECT_EQ(plan.steps()[0].copies, 16u);
  EXPECT_EQ(plan.steps()[0].swaps, 0u);
  for (std::size_t st = 1; st < 5; ++st) {
    EXPECT_EQ(plan.steps()[st].swaps, 8u);
    EXPECT_EQ(plan.steps()[st].copies, 0u);
  }
}

TEST(TransposePlan, NeverWorseThanPaperTotals) {
  // For every Table I row, our planner is at most the paper's op count.
  const TableRow paper[] = {
      {32, 80, 0, 560}, {16, 0, 0, 288}, {8, 0, 0, 180}, {7, 0, 0, 177},
      {6, 0, 0, 168},   {5, 0, 0, 164},  {4, 0, 0, 140}, {3, 0, 0, 137},
      {2, 0, 0, 127},
  };
  for (const TableRow& row : paper) {
    const TransposePlan plan = TransposePlan::transpose_low_bits(32, row.s);
    EXPECT_LE(plan.total_operations(), row.total) << "s=" << row.s;
  }
}

template <LaneWord W>
void check_plan_matches_full(unsigned s, std::uint64_t seed) {
  constexpr unsigned kBits = word_bits_v<W>;
  std::mt19937_64 rng(seed);
  const W payload_mask =
      s >= kBits ? static_cast<W>(~W{0})
                 : static_cast<W>((W{1} << s) - 1);
  std::vector<W> a(kBits), full(kBits);
  for (auto& w : a) w = static_cast<W>(rng()) & payload_mask;
  full = a;
  transpose_bits(std::span<W>(full));
  const TransposePlan plan = TransposePlan::transpose_low_bits(kBits, s);
  plan.apply(std::span<W>(a));
  for (unsigned r = 0; r < s; ++r) {
    ASSERT_EQ(a[r], full[r]) << "s=" << s << " row=" << r;
  }
}

class PlanEquivalence32 : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanEquivalence32, LiveRowsMatchFullTranspose) {
  check_plan_matches_full<std::uint32_t>(GetParam(), 1000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPayloadWidths, PlanEquivalence32,
                         ::testing::Range(1u, 33u));

class PlanEquivalence64 : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanEquivalence64, LiveRowsMatchFullTranspose) {
  check_plan_matches_full<std::uint64_t>(GetParam(), 2000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(SelectedPayloadWidths, PlanEquivalence64,
                         ::testing::Values(1u, 2u, 3u, 9u, 16u, 33u, 64u));

template <LaneWord W>
void check_untranspose_plan(unsigned s, std::uint64_t seed) {
  constexpr unsigned kBits = word_bits_v<W>;
  std::mt19937_64 rng(seed);
  std::vector<W> rows(kBits, 0), ref(kBits, 0);
  for (unsigned r = 0; r < s; ++r) rows[r] = static_cast<W>(rng());
  ref = rows;
  untranspose_bits(std::span<W>(ref));
  const TransposePlan plan = TransposePlan::untranspose_low_bits(kBits, s);
  plan.apply(std::span<W>(rows));
  const W mask = s >= kBits ? static_cast<W>(~W{0})
                            : static_cast<W>((W{1} << s) - 1);
  for (unsigned w = 0; w < kBits; ++w) {
    ASSERT_EQ(rows[w] & mask, ref[w] & mask) << "s=" << s << " w=" << w;
  }
}

class UntransposePlan32 : public ::testing::TestWithParam<unsigned> {};

TEST_P(UntransposePlan32, LowBitsMatchFullUntranspose) {
  check_untranspose_plan<std::uint32_t>(GetParam(), 3000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPayloadWidths, UntransposePlan32,
                         ::testing::Range(1u, 33u));

TEST(TransposePlan, UntransposeCheaperThanFull) {
  // B2W for s-bit scores must beat the 560-op dense network.
  for (unsigned s : {2u, 9u, 16u}) {
    const TransposePlan plan = TransposePlan::untranspose_low_bits(32, s);
    EXPECT_LT(plan.total_operations(), 560u) << "s=" << s;
  }
}

TEST(TransposePlan, FullWidthPlanEqualsDenseNetwork) {
  const TransposePlan plan = TransposePlan::transpose_low_bits(32, 32);
  EXPECT_EQ(plan.total_operations(), full_transpose_ops<std::uint32_t>());
}

TEST(TransposePlan, MonotoneInPayloadWidth) {
  unsigned prev = 0;
  for (unsigned s = 1; s <= 32; ++s) {
    const unsigned ops =
        TransposePlan::transpose_low_bits(32, s).total_operations();
    EXPECT_GE(ops, prev) << "s=" << s;
    prev = ops;
  }
}

}  // namespace
}  // namespace swbpbc::bitsim
