// Bit-sliced value representation.
//
// An s-bit bulk number Q is stored as s lane words q[0..s-1]; bit k of q[l]
// is bit l of instance k's value. All arithmetic in arith.hpp operates on
// these slice spans with pure bitwise logic, which is what lets one machine
// word advance 32/64 DP instances at once (the BPBC idea).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "bitops/counting.hpp"
#include "bitsim/wide_word.hpp"

namespace swbpbc::bitops {

template <class W>
struct word_traits;

template <std::unsigned_integral W>
struct word_traits<W> {
  static constexpr W zero() { return W{0}; }
  static constexpr W ones() { return static_cast<W>(~W{0}); }
};

template <class W>
  requires bitsim::is_wide_word_v<W>
struct word_traits<W> {
  static constexpr W zero() { return W{}; }
  static constexpr W ones() { return ~W{}; }
};

template <std::unsigned_integral B>
struct word_traits<CountingWord<B>> {
  static constexpr CountingWord<B> zero() { return CountingWord<B>{B{0}}; }
  static constexpr CountingWord<B> ones() {
    return CountingWord<B>{static_cast<B>(~B{0})};
  }
};

/// Types usable as BPBC lane words: plain unsigned integers and the
/// op-counting instrumentation wrapper.
template <class W>
concept SliceWord = requires(W a, W b) {
  { a & b } -> std::same_as<W>;
  { a | b } -> std::same_as<W>;
  { a ^ b } -> std::same_as<W>;
  { ~a } -> std::same_as<W>;
  { word_traits<W>::zero() } -> std::same_as<W>;
  { word_traits<W>::ones() } -> std::same_as<W>;
};

/// Slices of the per-lane constant `c` broadcast to every lane: slice l is
/// all-ones iff bit l of c is set. Used for gap/match/mismatch costs.
template <SliceWord W>
std::vector<W> broadcast_constant(std::uint32_t c, unsigned s) {
  std::vector<W> out;
  out.reserve(s);
  for (unsigned l = 0; l < s; ++l) {
    out.push_back(((c >> l) & 1) != 0 ? word_traits<W>::ones()
                                      : word_traits<W>::zero());
  }
  return out;
}

/// Zero-filled slice buffer of length s.
template <SliceWord W>
std::vector<W> zero_slices(unsigned s) {
  return std::vector<W>(s, word_traits<W>::zero());
}

}  // namespace swbpbc::bitops
