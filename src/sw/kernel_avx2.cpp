// The host kernel's 256-lane entry points compiled for AVX2: this file is
// built with -mavx2 (src/sw/CMakeLists.txt) and instantiates sw/kernel.hpp
// for Avx2Word, which with_lane_word<LaneWords::kNative> passes only after
// cpuid reports AVX2. Define nothing else here: any function this TU
// emits without the Avx2Word tag in its name could become the copy the
// linker keeps for every caller (scripts/ci.sh fences that).
#include "sw/kernel.hpp"

namespace swbpbc::sw::kernel {

SWBPBC_KERNEL_ENTRY_POINTS(template, Avx2Word)

}  // namespace swbpbc::sw::kernel
