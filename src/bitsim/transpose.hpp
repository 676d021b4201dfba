// Full W x W bit-matrix transpose via the recursive block-swap network
// (paper Fig. 1; Hacker's Delight 2nd ed., Section 7-3).
//
// After `transpose_bits(a)`, bit j of a[i] equals bit i of the original
// a[j]. The network runs log2(W) steps of W/2 swaps each, so a 32x32
// transpose costs 80 swaps = 560 bitwise operations (paper, Lemma 1).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "bitsim/swapcopy.hpp"

namespace swbpbc::bitsim {

/// In-place transpose of a W-bit x W-bit matrix stored one row per word.
template <LaneWord W>
void transpose_bits(std::span<W> a) {
  constexpr unsigned kBits = word_bits_v<W>;
  assert(a.size() == kBits);
  for (unsigned k = kBits / 2; k >= 1; k /= 2) {
    const W mask = step_mask<W>(k);
    for (unsigned i = 0; i < kBits; ++i) {
      if ((i & k) == 0) swap_bits(a[i], a[i ^ k], k, mask);
    }
  }
}

/// Inverse of transpose_bits. The network steps are involutions, so the
/// inverse applies them in the opposite order.
template <LaneWord W>
void untranspose_bits(std::span<W> a) {
  constexpr unsigned kBits = word_bits_v<W>;
  assert(a.size() == kBits);
  for (unsigned k = 1; k <= kBits / 2; k *= 2) {
    const W mask = step_mask<W>(k);
    for (unsigned i = 0; i < kBits; ++i) {
      if ((i & k) == 0) swap_bits(a[i], a[i ^ k], k, mask);
    }
  }
}

/// Number of bitwise operations performed by a full W x W transpose
/// (log2(W) steps x W/2 swaps x 7 ops; Lemma 1 gives 560 for W=32).
template <LaneWord W>
constexpr unsigned full_transpose_ops() {
  unsigned steps = 0;
  for (unsigned k = word_bits_v<W>; k > 1; k /= 2) ++steps;
  return steps * (word_bits_v<W> / 2) * 7;
}

}  // namespace swbpbc::bitsim
