// The baseline lane words' instantiations of the bit-sliced kernel
// (scheme_aligner.hpp); the ISA-tagged words are instantiated in
// kernel_avx2.cpp and kernel_avx512.cpp.
#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {

#define SWBPBC_INSTANTIATE_SCHEME_ALIGNER(...) \
  template class SchemeBpbcAligner<__VA_ARGS__>;
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint32_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint64_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<512>)
#undef SWBPBC_INSTANTIATE_SCHEME_ALIGNER

}  // namespace swbpbc::sw
