// B2W of bit-sliced score values (batch.hpp) for the baseline lane
// words. The DNA string W2B shares the generic per-group transpose and is
// instantiated with it in generic_batch.cpp.
#include "encoding/batch.hpp"

namespace swbpbc::encoding {

// Explicit instantiations for every lane width the library dispatches:
// builtin 32/64 plus the SIMD wide words and the forced-scalar fallback.
#define SWBPBC_INSTANTIATE_BATCH(W)                                         \
  template std::vector<std::uint32_t> untranspose_values<W>(                \
      std::span<const W>, unsigned, TransposeMethod);                       \
  template std::vector<W> transpose_values<W>(                              \
      std::span<const std::uint32_t>, unsigned)

SWBPBC_INSTANTIATE_BATCH(std::uint32_t);
SWBPBC_INSTANTIATE_BATCH(std::uint64_t);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<128>);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<256>);
SWBPBC_INSTANTIATE_BATCH(bitsim::simd_word<512>);
#undef SWBPBC_INSTANTIATE_BATCH
}  // namespace swbpbc::encoding
