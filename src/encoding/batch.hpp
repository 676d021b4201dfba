// W2B/B2W conversions of the BPBC pipeline (paper Section II): DNA
// string batches into bit-transpose format, and bit-sliced score values
// back to one integer per lane.
//
// DNA is the epsilon = 2 alphabet: a DNA batch is a 2-plane
// PlanarGenericBatch (generic_batch.hpp) — plane 0 holds the low bit and
// plane 1 the high bit of each base's 2-bit code — built by the same
// per-group transpose as transpose_generic_planar. The conversions run the
// liveness-specialized transpose plans of src/bitsim (paper Table I), or
// naively bit-by-bit for cross-checking.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/swapcopy.hpp"
#include "bitsim/wide_transpose.hpp"
#include "encoding/dna.hpp"
#include "encoding/generic_batch.hpp"
#include "util/status.hpp"

namespace swbpbc::encoding {

/// Converts equal-length DNA strings to bit-transpose format (the paper's
/// "W2B" step): a batch with planes == kBitsPerBase whose rows equal
/// transpose_generic_planar<W>(seqs, 2). Returns kInvalidInput, naming
/// the offending index, if lengths differ or a code is not a DNA code.
template <bitsim::LaneWord W>
util::Expected<PlanarGenericBatch<W>> try_transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned) {
  const std::size_t length = seqs.empty() ? 0 : seqs.front().size();
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    if (seqs[k].size() != length)
      return util::Status::invalid_input(
          "transpose_strings requires equal-length sequences: seqs[" +
          std::to_string(k) + "] has length " +
          std::to_string(seqs[k].size()) + ", batch requires " +
          std::to_string(length));
  }
  if (const auto bad =
          find_code_at_least(seqs, std::size_t{1} << kBitsPerBase))
    return util::Status::invalid_input(
        "transpose_strings: seqs[" + std::to_string(bad->seq) + "][" +
        std::to_string(bad->index) + "] code " + std::to_string(bad->code) +
        " is not a DNA code");
  return detail::transpose_batch<W>(seqs, kBitsPerBase, method);
}

/// Throwing convenience wrapper (throws util::StatusError).
template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned) {
  return try_transpose_strings<W>(seqs, method).value();
}

/// Converts `s`-bit bit-sliced values (slice l = bit l of all W lanes)
/// back to one integer per lane (the paper's "B2W" step).
/// `slices.size()` must equal `s`, and s <= 32.
template <bitsim::LaneWord W>
std::vector<std::uint32_t> untranspose_values(
    std::span<const W> slices, unsigned s,
    TransposeMethod method = TransposeMethod::kPlanned) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  if (slices.size() != s)
    throw std::invalid_argument("slices.size() must equal s");
  if (s > 32) throw std::invalid_argument("s must be <= 32");
  std::vector<std::uint32_t> out(kLanes, 0);
  if (s == 0) return out;

  if (method == TransposeMethod::kNaive) {
    for (unsigned l = 0; l < s; ++l) {
      for (unsigned lane = 0; lane < kLanes; ++lane) {
        out[lane] |= static_cast<std::uint32_t>(
                         bitsim::get_limb(slices[l] >> lane, 0) & 1)
                     << l;
      }
    }
    return out;
  }

  std::array<W, kLanes> scratch;
  scratch.fill(0);
  for (unsigned l = 0; l < s; ++l) scratch[l] = slices[l];
  bitsim::PayloadTranspose<W>::inverse(s).apply(std::span<W>(scratch));
  const std::uint32_t mask =
      s >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << s) - 1);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    out[lane] =
        static_cast<std::uint32_t>(bitsim::get_limb(scratch[lane], 0)) & mask;
  }
  return out;
}

/// Inverse helper for tests: per-lane integer values -> `s` slice words.
template <bitsim::LaneWord W>
std::vector<W> transpose_values(std::span<const std::uint32_t> values,
                                unsigned s) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  if (values.size() > kLanes)
    throw std::invalid_argument("more values than lanes");
  std::vector<W> slices(s, 0);
  for (std::size_t lane = 0; lane < values.size(); ++lane) {
    for (unsigned l = 0; l < s; ++l) {
      slices[l] |= static_cast<W>(static_cast<W>((values[lane] >> l) & 1)
                                  << lane);
    }
  }
  return slices;
}

// The baseline lane words are instantiated once, in generic_batch.cpp
// (W2B) and batch.cpp (B2W).
#define SWBPBC_DECLARE_BATCH(...)                                         \
  extern template util::Expected<PlanarGenericBatch<__VA_ARGS__>>         \
  try_transpose_strings<__VA_ARGS__>(std::span<const Sequence>,           \
                                     TransposeMethod);                    \
  extern template PlanarGenericBatch<__VA_ARGS__>                         \
  transpose_strings<__VA_ARGS__>(std::span<const Sequence>,               \
                                 TransposeMethod);                        \
  extern template std::vector<std::uint32_t> untranspose_values<          \
      __VA_ARGS__>(std::span<const __VA_ARGS__>, unsigned, TransposeMethod); \
  extern template std::vector<__VA_ARGS__> transpose_values<__VA_ARGS__>( \
      std::span<const std::uint32_t>, unsigned);

SWBPBC_DECLARE_BATCH(std::uint32_t)
SWBPBC_DECLARE_BATCH(std::uint64_t)
SWBPBC_DECLARE_BATCH(bitsim::simd_word<128>)
SWBPBC_DECLARE_BATCH(bitsim::simd_word<256>)
SWBPBC_DECLARE_BATCH(bitsim::simd_word<512>)
#undef SWBPBC_DECLARE_BATCH

}  // namespace swbpbc::encoding
