// The host kernel's 512-lane entry points compiled for AVX-512: this file
// is built with -mavx512f (src/sw/CMakeLists.txt) and instantiates
// sw/kernel.hpp for Avx512Word, which with_lane_word<LaneWords::kNative>
// passes only after cpuid reports AVX-512F. Define nothing else here: any
// function this TU emits without the Avx512Word tag in its name could
// become the copy the linker keeps for every caller (scripts/ci.sh fences
// that).
#include "sw/kernel.hpp"

namespace swbpbc::sw::kernel {

SWBPBC_KERNEL_ENTRY_POINTS(template, Avx512Word)

}  // namespace swbpbc::sw::kernel
