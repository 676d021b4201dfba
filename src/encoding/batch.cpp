// B2W of bit-sliced score values. The DNA string W2B shares the generic
// per-group transpose and lives with it in generic_batch.cpp.
#include "encoding/batch.hpp"

#include <array>
#include <stdexcept>

#include "bitsim/wide_transpose.hpp"

namespace swbpbc::encoding {

template <bitsim::LaneWord W>
std::vector<std::uint32_t> untranspose_values(std::span<const W> slices,
                                              unsigned s,
                                              TransposeMethod method) {
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

// Explicit instantiations for every lane width the library dispatches:
// builtin 32/64 plus the SIMD wide words and the forced-scalar fallback.
#define SWBPBC_INSTANTIATE_BATCH(W)                                         \
  template std::vector<std::uint32_t> untranspose_values<W>(                \
      std::span<const W>, unsigned, TransposeMethod);                       \
  template std::vector<W> transpose_values<W>(                              \
      std::span<const std::uint32_t>, unsigned)

using ScalarWide256 = bitsim::wide_word<256, false>;
SWBPBC_INSTANTIATE_BATCH(std::uint32_t);
SWBPBC_INSTANTIATE_BATCH(std::uint64_t);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<128>);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<256>);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<512>);
SWBPBC_INSTANTIATE_BATCH(ScalarWide256);
#undef SWBPBC_INSTANTIATE_BATCH
}  // namespace swbpbc::encoding
