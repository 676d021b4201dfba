// Bit-transpose ("bit-sliced") storage of DNA string batches — the BPBC
// input format of Section II.
//
// A group packs one string from each of W instances (W = lane-word width,
// 32 or 64): `lo[i]` holds the low bit and `hi[i]` the high bit of
// character i of all W strings, one instance per bit lane. The W2B / B2W
// conversions are performed with the liveness-specialized transpose plans
// of src/bitsim (paper Table I), or naively bit-by-bit for cross-checking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/swapcopy.hpp"
#include "encoding/dna.hpp"
#include "util/status.hpp"

namespace swbpbc::encoding {

/// How W2B/B2W conversions are implemented.
enum class TransposeMethod {
  kPlanned,  // specialized swap/copy plan (paper's method, Table I)
  kNaive,    // bit-by-bit extraction (reference for tests)
};

/// One group of W equal-length strings in bit-transpose format.
template <bitsim::LaneWord W>
struct TransposedStrings {
  std::size_t length = 0;
  std::vector<W> hi;  // hi[i] = H bits of character i, one instance per lane
  std::vector<W> lo;  // lo[i] = L bits of character i

  static constexpr unsigned lanes() { return bitsim::word_bits_v<W>; }
};

/// A batch of `count` equal-length strings, split into ceil(count/W)
/// groups. Unused lanes of the final group read as base A (code 0) and
/// must be ignored by consumers.
template <bitsim::LaneWord W>
struct TransposedBatch {
  std::size_t count = 0;
  std::size_t length = 0;
  std::vector<TransposedStrings<W>> groups;
};

/// Converts equal-length strings to bit-transpose format (the paper's
/// "W2B" step). Returns kInvalidInput, naming the offending index, if
/// lengths differ.
template <bitsim::LaneWord W>
util::Expected<TransposedBatch<W>> try_transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Throwing convenience wrapper (throws util::StatusError).
template <bitsim::LaneWord W>
TransposedBatch<W> transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Reads character `i` of lane `lane` back out of a transposed group
/// (test/debug helper).
template <bitsim::LaneWord W>
Base read_base(const TransposedStrings<W>& group, std::size_t lane,
               std::size_t i) {
  const auto h = static_cast<std::uint8_t>(
      bitsim::get_limb(group.hi[i] >> lane, 0) & 1);
  const auto l = static_cast<std::uint8_t>(
      bitsim::get_limb(group.lo[i] >> lane, 0) & 1);
  return base_from_code(static_cast<std::uint8_t>((h << 1) | l));
}

/// Converts `s`-bit bit-sliced values (slice l = bit l of all W lanes)
/// back to one integer per lane (the paper's "B2W" step).
/// `slices.size()` must equal `s`, and s <= 32.
template <bitsim::LaneWord W>
std::vector<std::uint32_t> untranspose_values(
    std::span<const W> slices, unsigned s,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Inverse helper for tests: per-lane integer values -> `s` slice words.
template <bitsim::LaneWord W>
std::vector<W> transpose_values(std::span<const std::uint32_t> values,
                                unsigned s);

}  // namespace swbpbc::encoding
