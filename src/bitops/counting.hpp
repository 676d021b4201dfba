// CountingWord — a drop-in lane-word that counts bitwise operations.
//
// The paper's Lemmas 2-5 and Theorem 6 state exact operation counts for the
// bit-sliced arithmetic functions. Instead of re-deriving those counts on
// paper, the test suite instantiates the very same templates with
// CountingWord<uint32_t> and asserts the measured counts; see
// tests/bitops/opcount_test.cpp.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>

#include "bitsim/wide_word.hpp"

namespace swbpbc::bitops {

/// Lane-population count, generic over builtin and wide lane words. One
/// set bit = one surviving instance, so code that counts ge_mask
/// survivors must come through here instead of assuming a builtin-sized
/// word (std::popcount does not accept wide_word).
template <std::unsigned_integral W>
[[nodiscard]] constexpr unsigned popcount(W w) {
  return static_cast<unsigned>(std::popcount(w));
}
template <unsigned Bits, bool Simd>
[[nodiscard]] inline unsigned popcount(const bitsim::wide_word<Bits, Simd>& w) {
  unsigned n = 0;
  for (unsigned t = 0; t < bitsim::wide_word<Bits, Simd>::kLimbs; ++t)
    n += static_cast<unsigned>(std::popcount(w.limb(t)));
  return n;
}

/// Wraps an unsigned integer and counts every &, |, ^, ~ applied to it.
/// Shifts are intentionally not provided: the Section IV.A arithmetic is
/// pure AND/OR/XOR/NOT and must stay that way.
template <std::unsigned_integral Base>
class CountingWord {
 public:
  CountingWord() = default;
  constexpr explicit CountingWord(Base v) : v_(v) {}

  [[nodiscard]] constexpr Base value() const { return v_; }

  /// Operations applied since the last reset (per thread).
  static std::uint64_t ops() { return ops_; }
  static void reset_ops() { ops_ = 0; }

  friend CountingWord operator&(CountingWord a, CountingWord b) {
    ++ops_;
    return CountingWord(static_cast<Base>(a.v_ & b.v_));
  }
  friend CountingWord operator|(CountingWord a, CountingWord b) {
    ++ops_;
    return CountingWord(static_cast<Base>(a.v_ | b.v_));
  }
  friend CountingWord operator^(CountingWord a, CountingWord b) {
    ++ops_;
    return CountingWord(static_cast<Base>(a.v_ ^ b.v_));
  }
  friend CountingWord operator~(CountingWord a) {
    ++ops_;
    return CountingWord(static_cast<Base>(~a.v_));
  }
  CountingWord& operator&=(CountingWord o) { return *this = *this & o; }
  CountingWord& operator|=(CountingWord o) { return *this = *this | o; }
  CountingWord& operator^=(CountingWord o) { return *this = *this ^ o; }

  friend bool operator==(CountingWord a, CountingWord b) {
    return a.v_ == b.v_;
  }

 private:
  Base v_{};
  static inline thread_local std::uint64_t ops_ = 0;
};

}  // namespace swbpbc::bitops
