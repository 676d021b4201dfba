// bitsim::wide_word semantics: limb layout, logic/shift arithmetic against
// a per-limb uint64 reference, the generic popcount, and the wide payload
// transposes, at every wide width.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bitops/counting.hpp"
#include "bitops/slices.hpp"
#include "bitsim/wide_transpose.hpp"
#include "bitsim/wide_word.hpp"
#include "util/rng.hpp"

namespace swbpbc::bitsim {
namespace {

template <typename W>
class WideWord : public ::testing::Test {};

using WideTypes =
    ::testing::Types<simd_word<128>, simd_word<256>, simd_word<512>>;
TYPED_TEST_SUITE(WideWord, WideTypes);

template <typename W>
W random_word(util::Xoshiro256& rng) {
  W w{};
  for (unsigned t = 0; t < W::kLimbs; ++t) set_limb(w, t, rng.next());
  return w;
}

// Reference bit read straight off the limb layout: bit k = limb k/64,
// bit k%64.
template <typename W>
bool ref_bit(const W& w, unsigned k) {
  return ((get_limb(w, k / 64) >> (k % 64)) & 1) != 0;
}

TYPED_TEST(WideWord, TraitsAndLimbLayout) {
  using W = TypeParam;
  static_assert(is_wide_word_v<W>);
  static_assert(word_bits_v<W> == W::kBits);
  static_assert(lane_limbs_v<W> == W::kBits / 64);

  constexpr W zero = bitops::word_traits<W>::zero();
  constexpr W ones = bitops::word_traits<W>::ones();
  for (unsigned t = 0; t < W::kLimbs; ++t) {
    EXPECT_EQ(get_limb(zero, t), 0u);
    EXPECT_EQ(get_limb(ones, t), ~std::uint64_t{0});
  }

  // The implicit uint64 constructor fills limb 0 only.
  const W x{0xDEADBEEFu};
  EXPECT_EQ(get_limb(x, 0), 0xDEADBEEFu);
  for (unsigned t = 1; t < W::kLimbs; ++t) EXPECT_EQ(get_limb(x, t), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(x), 0xDEADBEEFu);
}

TYPED_TEST(WideWord, LogicOpsMatchPerLimbReference) {
  using W = TypeParam;
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 16; ++trial) {
    const W a = random_word<W>(rng);
    const W b = random_word<W>(rng);
    const W land = a & b, lor = a | b, lxor = a ^ b, lnot = ~a;
    for (unsigned t = 0; t < W::kLimbs; ++t) {
      EXPECT_EQ(get_limb(land, t), get_limb(a, t) & get_limb(b, t));
      EXPECT_EQ(get_limb(lor, t), get_limb(a, t) | get_limb(b, t));
      EXPECT_EQ(get_limb(lxor, t), get_limb(a, t) ^ get_limb(b, t));
      EXPECT_EQ(get_limb(lnot, t), ~get_limb(a, t));
    }
    EXPECT_EQ(a, a);
    EXPECT_NE(a ^ b, a ^ b ^ W{1});
  }
}

TYPED_TEST(WideWord, ShiftsMatchBitLevelReference) {
  using W = TypeParam;
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const W a = random_word<W>(rng);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                          std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{W::kBits - 1}, std::size_t{W::kBits}}) {
      const W l = a << k, r = a >> k;
      for (unsigned bit = 0; bit < W::kBits; ++bit) {
        const bool want_l = bit >= k && ref_bit(a, bit - static_cast<unsigned>(k));
        const bool want_r =
            bit + k < W::kBits && ref_bit(a, bit + static_cast<unsigned>(k));
        ASSERT_EQ(ref_bit(l, bit), want_l) << "<< " << k << " bit " << bit;
        ASSERT_EQ(ref_bit(r, bit), want_r) << ">> " << k << " bit " << bit;
      }
    }
  }
}

TYPED_TEST(WideWord, PopcountSumsLimbs) {
  using W = TypeParam;
  EXPECT_EQ(bitops::popcount(W{}), 0u);
  EXPECT_EQ(bitops::popcount(~W{}), W::kBits);
  W w{};
  set_limb(w, 0, 0b1011u);
  set_limb(w, W::kLimbs - 1, std::uint64_t{1} << 63);
  EXPECT_EQ(bitops::popcount(w), 4u);
}

TYPED_TEST(WideWord, PayloadTransposeRoundTripsAndMatchesBitReference) {
  using W = TypeParam;
  constexpr unsigned kLanes = word_bits_v<W>;
  const unsigned s = 9;
  util::Xoshiro256 rng(3);

  std::vector<W> block(kLanes);
  std::vector<std::uint32_t> values(kLanes);
  for (unsigned k = 0; k < kLanes; ++k) {
    values[k] = static_cast<std::uint32_t>(rng.next()) & ((1u << s) - 1);
    block[k] = W{values[k]};
  }

  const auto fwd = PayloadTranspose<W>::forward(s);
  EXPECT_EQ(fwd.live_rows(), s);
  fwd.apply(std::span<W>(block));

  // Slice l, lane k must be bit l of instance k's value.
  for (unsigned l = 0; l < s; ++l) {
    for (unsigned k = 0; k < kLanes; ++k) {
      ASSERT_EQ(ref_bit(block[l], k), ((values[k] >> l) & 1u) != 0)
          << "slice " << l << " lane " << k;
    }
  }

  // Round trip: zero the dead rows (inverse requires rows >= s zero) and
  // untranspose back to the original values.
  for (unsigned k = s; k < kLanes; ++k) block[k] = W{};
  PayloadTranspose<W>::inverse(s).apply(std::span<W>(block));
  for (unsigned k = 0; k < kLanes; ++k) {
    // Bits >= s of the inverse output are unspecified, like the plans.
    ASSERT_EQ(get_limb(block[k], 0) & ((1u << s) - 1), values[k])
        << "lane " << k;
  }
}

}  // namespace
}  // namespace swbpbc::bitsim
