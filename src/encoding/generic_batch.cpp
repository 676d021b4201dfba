// W2B for every alphabet: generic epsilon-bit batches and DNA batches
// (the epsilon = 2 instance, declared in batch.hpp) run one per-group
// transpose (generic_batch.hpp). This file holds its batch check and the
// baseline lane words' instantiations.
#include "encoding/generic_batch.hpp"

#include <stdexcept>

#include "encoding/batch.hpp"

namespace swbpbc::encoding {

void detail::check_batch(std::span<const GenericSequence> seqs,
                         unsigned bits, std::size_t length) {
  if (bits == 0 || bits > kMaxAlphabetPlanes)
    throw std::invalid_argument("character width must be in [1, 8] bits");
  for (const auto& s : seqs) {
    if (s.size() != length)
      throw std::invalid_argument(
          "transpose_generic_planar requires equal-length sequences");
  }
  if (find_code_at_least(seqs, std::size_t{1} << bits))
    throw std::invalid_argument("character code exceeds plane width");
}

// Explicit instantiations for every lane width the library dispatches:
// builtin 32/64 plus the SIMD wide words and the forced-scalar fallback.
#define SWBPBC_INSTANTIATE_GENERIC_BATCH(...)                              \
  template PlanarGenericBatch<__VA_ARGS__>                                 \
  transpose_generic_planar<__VA_ARGS__>(                                   \
      std::span<const GenericSequence>, unsigned, TransposeMethod);        \
  template util::Expected<PlanarGenericBatch<__VA_ARGS__>>                 \
  try_transpose_strings<__VA_ARGS__>(std::span<const Sequence>,            \
                                     TransposeMethod);                     \
  template PlanarGenericBatch<__VA_ARGS__> transpose_strings<__VA_ARGS__>( \
      std::span<const Sequence>, TransposeMethod);

SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint32_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint64_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<512>)
#undef SWBPBC_INSTANTIATE_GENERIC_BATCH

}  // namespace swbpbc::encoding
